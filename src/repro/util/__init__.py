"""Small shared utilities: the base synthesis error and lazy imports."""
