"""Desk-run benchmark of unfoldfed; see README.md and run.py."""
