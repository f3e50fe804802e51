"""The library is stdlib-only: every module imports on a bare interpreter.

``python -S`` leaves site-packages off the import path, so a
third-party import anywhere under ``repro`` fails here even on a machine
that has the package installed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import pkgutil
import sys

import repro

def fail(name):
    raise

names = [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.", fail)
]
for name in names:
    __import__(name)
loaded = {name.partition(".")[0] for name in sys.modules}
# The package itself, and ``-c``'s main module under both its names.
ours = {"repro", "__main__", "__mp_main__"}
print(" ".join(names))
print(" ".join(sorted(loaded - ours - set(sys.stdlib_module_names))))
"""


def test_every_module_imports_without_site_packages():
    probe = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=False,
    )
    assert probe.returncode == 0, probe.stderr
    walked, foreign = probe.stdout.split("\n")[:2]
    on_disk = {
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
            ".__init__"
        )
        for path in (SRC / "repro").rglob("*.py")
    }
    assert set(walked.split()) == on_disk - {"repro"}
    assert foreign == ""
