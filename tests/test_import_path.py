"""The `protocol` and `spider` commands run without numpy: importing the CLI
and running both commands leaves it unloaded, while every module the CLI
binds is loaded and the package still re-exports the dense layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import isonet

SCRIPT = r"""
import io, json, sys, contextlib
import isonet.cli
after_import = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        isonet.cli.main(["protocol", "--family", "complete", "--n", "20",
                         "--subset", "0,1,2,3,4,5,6,7,8,9", "--p", "0.99"]),
        isonet.cli.main(["spider", "--family", "complete", "--n", "40",
                         "--subset", "0,1,2"]),
    ]
after_jobs = "numpy" in sys.modules
modules = ["cli", "graphs", "spiders", "channels", "protocol", "spectra", "verification"]
missing = [m for m in modules if f"isonet.{m}" not in sys.modules]
from isonet import DensityOperator, ghz
dense = DensityOperator is type(ghz(2).density())
print(json.dumps({"after_import": after_import, "after_jobs": after_jobs,
                  "codes": codes, "missing": missing, "dense": dense}))
"""


def test_cli_protocol_and_spider_never_load_numpy():
    src = str(Path(isonet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {
        "after_import": False,
        "after_jobs": False,
        "codes": [0, 0],
        "missing": [],
        "dense": True,
    }
