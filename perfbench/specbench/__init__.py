"""Benchmark-side code for the specmd benchmark (see perfbench/run.py)."""
