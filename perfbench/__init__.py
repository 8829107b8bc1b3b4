"""End-to-end, layer-attributed refresh benchmark (see run.py)."""
