"""tools/same_results.py on seed 0: a copy of this tree reads identical, a
copy with one right-hand-side term moved by one ulp reads different on every
command that steps, and within a relative tolerance when one is given."""

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

# The diffusion coefficient a- = nu/dx^2 of the face flux, one ulp up, and a
# relative tolerance that the differences it makes stay within.
TERM = "a_minus.append(p.nu / (d * d))"
NUDGED = "a_minus.append(math.nextafter(p.nu / (d * d), math.inf))"
TOLERANCE = 1e-9


def copy_tree(dest):
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(dest)


def test_copy_is_identical(tmp_path):
    copy = copy_tree(tmp_path / "copy")
    verdicts = dict(same_results.same_results(copy, run_seeds=[0], check_seeds=[0]))
    labels = ["run seed 0", "rates seed 0", "check seed 0"]
    labels += [label for label, _ in same_results.FIXED]
    assert verdicts == dict.fromkeys(labels, "identical")


def test_one_ulp_in_rhs_is_different(tmp_path):
    nudged = copy_tree(tmp_path / "nudged")
    path = os.path.join(nudged, "src", "augburgers", "scheme.py")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(TERM) == 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(TERM, NUDGED))
    runs = {label: (mine, theirs) for label, mine, theirs
            in same_results.outputs(nudged, run_seeds=[0], check_seeds=[])}
    # profile samples the wave and steps nothing; every other command steps.
    assert same_results.compare(*runs.pop("profile"), tolerance=TOLERANCE) == "identical"
    assert len(runs) == 2 + len(same_results.FIXED) - 1
    for label, (mine, theirs) in runs.items():
        verdict = same_results.compare(mine, theirs)
        assert verdict.startswith("different ("), label
        assert "largest absolute difference" in verdict
        assert verdict.endswith("exit codes 0 and 0)")
        within = same_results.compare(mine, theirs, tolerance=TOLERANCE)
        assert within.startswith(f"within {TOLERANCE:g} (largest relative difference "), label


def test_within_needs_equal_exit_codes_and_other_outputs():
    a = (0, b"", {"x.csv": b"t,u\r\n1,0.5\r\n", "manifest.txt": b"k = 1\n"})
    b = (0, b"", {"x.csv": b"t,u\r\n1,0.50000000001\r\n", "manifest.txt": b"k = 1\n"})
    assert same_results.compare(a, b, tolerance=1e-9).startswith("within 1e-09 (")
    assert same_results.compare(a, b, tolerance=1e-12).startswith("different (")
    assert same_results.compare(a, (1,) + b[1:], tolerance=1e-9).startswith("different (")
    changed = (0, b"", {**b[2], "manifest.txt": b"k = 2\n"})
    assert same_results.compare(a, changed, tolerance=1e-9).startswith("different (")
    text = (0, b"", {**a[2], "x.csv": b"t,u\r\n1,nan\r\n"})
    assert same_results.compare(a, text, tolerance=1.0).startswith("different (")
