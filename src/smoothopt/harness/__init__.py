"""Reproducibility layer: config files, benchmark runner, validation suites, CLI."""
