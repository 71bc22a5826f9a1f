"""End-to-end wall-clock benchmark (see README.md and run.py)."""
