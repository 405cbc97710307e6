"""Small shared utilities: the base synthesis error, append-only JSONL
journals and lazy imports."""
