"""End-to-end and per-layer benchmark of graphmat (see README.md)."""
