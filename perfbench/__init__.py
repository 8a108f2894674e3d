"""End-to-end and per-layer benchmark of the repro simulator (see README.md)."""
