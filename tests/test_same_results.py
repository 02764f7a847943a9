"""tools/same_results.py on seed 0: a copy of this tree reads identical, a
copy with one right-hand-side term moved by one ulp reads different."""

import importlib.util
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "same_results", os.path.join(ROOT, "tools", "same_results.py"))
same_results = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = same_results
spec.loader.exec_module(same_results)

# The diffusion coefficient a- = nu/dx^2 of the face flux, one ulp up.
TERM = "a_minus.append(p.nu / (d * d))"
NUDGED = "a_minus.append(math.nextafter(p.nu / (d * d), math.inf))"


def copy_tree(dest):
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(dest)


def test_copy_is_identical(tmp_path):
    copy = copy_tree(tmp_path / "copy")
    verdicts = dict(same_results.same_results(copy, run_seeds=[0], check_seeds=[0]))
    assert verdicts == dict.fromkeys(["run seed 0", "rates seed 0", "check seed 0"], "identical")


def test_one_ulp_in_rhs_is_different(tmp_path):
    nudged = copy_tree(tmp_path / "nudged")
    path = os.path.join(nudged, "src", "augburgers", "scheme.py")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(TERM) == 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(TERM, NUDGED))
    verdicts = dict(same_results.same_results(nudged, run_seeds=[0], check_seeds=[]))
    for label in ("run seed 0", "rates seed 0"):
        assert verdicts[label].startswith("different (")
        assert "largest absolute difference" in verdicts[label]
        assert verdicts[label].endswith("exit codes 0 and 0)")
