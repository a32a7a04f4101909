"""The CI workflow is valid YAML, and every step of its tier-1 job runs a
command or uses an action: a workflow that does not parse runs no test."""
import pathlib

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_tier1_job_steps_each_run_a_command_or_use_an_action():
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    steps = jobs["tier1"]["steps"]
    assert steps
    for step in steps:
        assert "run" in step or "uses" in step, step
