"""Test-time adaptation engine for embedding-based retrieval under query shift."""

__version__ = "0.1.0"
