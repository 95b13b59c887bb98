"""Offline benchmark of the terminators pipeline; run it with run.py."""
