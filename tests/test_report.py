import json

from hypothesis import example, given, strategies as st

from oplax.report import Check, first_nonzero_check, flag_check, render_json, render_text
from oplax.scalars import ScalarPoly, parse_scalar

CHECKS = [
    first_nonzero_check("demo.pass", "a zero residual", [(None, ScalarPoly.zero())],
                        "entry 1"),
    first_nonzero_check("demo.fail", "a nonzero residual",
                        [("first label", ScalarPoly.zero()),
                         ("second label", parse_scalar("x1 - 2*w"))], "entry 2"),
    flag_check("demo.flag", "a flag without a residual", True, "stored value"),
]


def test_render_json_orders_keys_and_omits_a_missing_residual():
    assert render_json(CHECKS) == """\
{
  "checks": [
    {
      "id": "demo.pass",
      "paper_ref": "a zero residual",
      "status": "pass",
      "residual": "0",
      "detail": "entry 1"
    },
    {
      "id": "demo.fail",
      "paper_ref": "a nonzero residual",
      "status": "fail",
      "residual": "x1 - 2*w",
      "detail": "entry 2; second label"
    },
    {
      "id": "demo.flag",
      "paper_ref": "a flag without a residual",
      "status": "pass",
      "detail": "stored value"
    }
  ],
  "summary": {
    "total": 3,
    "passed": 2,
    "failed": 1
  }
}
"""
    doc = json.loads(render_json(CHECKS), object_pairs_hook=list)
    assert [[key for key, _ in entry] for entry in dict(doc)["checks"]] == [
        ["id", "paper_ref", "status", "residual", "detail"],
        ["id", "paper_ref", "status", "residual", "detail"],
        ["id", "paper_ref", "status", "detail"],
    ]
    assert dict(doc)["summary"] == [("total", 3), ("passed", 2), ("failed", 1)]


def test_render_text_prints_one_line_per_check():
    assert render_text(CHECKS) == (
        "[PASS] demo.pass — a zero residual\n"
        "[FAIL] demo.fail — a nonzero residual\n"
        "[PASS] demo.flag — a flag without a residual\n"
    )


def dumped_report(checks) -> str:
    """The report as ``json.dumps`` lays it out: the document render_json writes."""
    entries = [{key: value for key, value in c._asdict().items()
                if key != "residual" or value is not None} for c in checks]
    passed = sum(c.passed for c in checks)
    summary = {"total": len(checks), "passed": passed, "failed": len(checks) - passed}
    return json.dumps({"checks": entries, "summary": summary}, indent=2) + "\n"


#: text with what the escaper must rewrite: quotes, backslashes, control and non-ASCII
#: characters, astral ones (a surrogate pair each) among them
fields = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f \xe9\u2014\U0001d11e'),
                           st.characters()), max_size=12)
checks = st.lists(st.builds(Check, fields, fields, st.sampled_from(("pass", "fail")),
                            st.one_of(st.none(), fields), fields), max_size=4)


@given(checks)
@example([])
@example(CHECKS)
def test_render_json_writes_what_json_dumps_writes(checks):
    assert render_json(checks) == dumped_report(checks)
