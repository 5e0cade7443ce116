"""Orchestrator half of the repository benchmark (see perfbench/README.md)."""
