"""Independent reference implementations the differential suites compare
``src/repro`` against. Test-only: nothing under ``src/`` imports them.
"""
