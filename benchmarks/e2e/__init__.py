"""End-to-end benchmark of the PGX.D reproduction (see README.md here)."""
