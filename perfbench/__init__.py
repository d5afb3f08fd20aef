"""Benchmark harness for einverse; entry point ``perfbench/run.py``."""
