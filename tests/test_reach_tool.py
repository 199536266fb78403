"""``scripts/reach.py`` keeps working: one small entry point, no pytest pass.

``make reach`` traces every entry point and tier-1 (minutes); this runs the
same tool over ``examples/quickstart.py`` alone and checks that its report
parses and tells a def the example calls from one only tests call.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reach_tells_a_reached_def_from_a_test_only_one(tmp_path):
    report = tmp_path / "reach.json"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reach.py"), "--no-tests",
         "--entry", "examples/quickstart.py", "--json", str(report)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    document = json.loads(report.read_text())
    reach = {row["name"]: row["reach"] for row in document["defs"]}
    assert document["failed"] == []
    assert sum(document["counts"].values()) == len(document["defs"])
    assert document["counts"]["tests"] == 0
    assert reach["DataSpread.set_value"] == "system"
    assert reach["DependencyGraph.detect_cycle"] == "none"
