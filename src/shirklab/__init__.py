"""Solver and finite-agent simulation lab for a principal-agent game of
technology adoption under the threat of group shirking."""

__version__ = "0.1.0"
