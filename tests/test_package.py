"""The package root is what the benchmark harness reads of pfalab: the
RNG tag it writes into every report.  Everything else is imported from
its module."""

import json
import subprocess
import sys
from pathlib import Path

import pfalab
import pfalab.rng


def test_root_rng_algorithm_is_the_rng_modules():
    assert pfalab.RNG_ALGORITHM is pfalab.rng.RNG_ALGORITHM


def test_importing_the_root_loads_only_the_rng_module():
    src = str(Path(pfalab.__file__).resolve().parents[1])
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import pfalab; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('pfalab.'))))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["pfalab.rng"]
