"""scipy loads only when a parametric test runs, never on the default path."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent(
    """
    import json, sys
    import repro, repro.serve
    from repro.cli import main
    from repro.datasets import covid_table
    from repro.relational import write_csv

    def scipy_loaded():
        return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

    after_import = scipy_loaded()
    csv, out = sys.argv[1], sys.argv[2]
    write_csv(covid_table(300), csv)
    code = main(["generate", csv, "--budget", "3", "--out", out, "--quiet"])
    after_generate = scipy_loaded()

    # One worker, so the parametric tests run (and import scipy) here.
    config = repro.ReproConfig().with_significance(engine="parametric")
    config = config.with_parallel(workers=1)
    run = repro.generate_notebook(csv, config=config)
    print(json.dumps({
        "after_import": after_import,
        "code": code,
        "after_generate": after_generate,
        "parametric_queries": len(run.selected),
        "after_parametric": scipy_loaded(),
    }))
    """
)


def test_default_path_never_imports_scipy(tmp_path):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "covid.csv"), str(tmp_path / "nb.ipynb")],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    state = json.loads(done.stdout.strip().splitlines()[-1])
    assert state["after_import"] is False
    assert state["code"] == 0
    assert (tmp_path / "nb.ipynb").exists()
    assert state["after_generate"] is False
    # The parametric engine still works: scipy loads on its first use.
    assert state["parametric_queries"] > 0
    assert state["after_parametric"] is True
