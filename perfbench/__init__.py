"""Benchmark and outside-in trace harness for the degenforge command."""
