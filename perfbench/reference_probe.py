"""Time a fixed set of standard-library imports in a fresh interpreter.

Usage: ``python3 reference_probe.py``. Prints the wall seconds taken.

``run.py`` runs this right after each set-up probe and reports set-up
time relative to it (see "Reference seconds" in NOTES.md). Set-up is
mostly import work: finding modules, reading and unmarshalling cached
bytecode, running module bodies and loading shared libraries. Its speed
drifts with the machine in ways a small compute kernel does not follow,
so the reference is import work too. It never imports the program or
NumPy, so no change to either changes it.
"""

import sys
import time

# Seconds these imports took on the 2-vCPU VM the figures in NOTES.md
# come from. It only sets the scale of setup_s.
REFERENCE_S = 0.1
# Pure-Python packages and extension modules that load shared libraries
# (OpenSSL, SQLite, expat), as NumPy loads its own.
MODULES = (
    "argparse",
    "asyncio",
    "concurrent.futures",
    "csv",
    "dataclasses",
    "decimal",
    "difflib",
    "email.mime.multipart",
    "http.server",
    "json",
    "logging.handlers",
    "multiprocessing.pool",
    "pydoc",
    "sqlite3",
    "ssl",
    "tarfile",
    "unittest",
    "xml.dom.minidom",
    "xml.etree.ElementTree",
    "zipfile",
)


def main() -> int:
    start = time.perf_counter()
    for name in MODULES:
        __import__(name)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
