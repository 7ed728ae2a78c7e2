"""The mvpolar benchmark: see README.md; run mvbench/run.py from the repository root."""
