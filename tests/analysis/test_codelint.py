"""Tests for the AST code lint (rules CD000...CD006)."""

from pathlib import Path

from repro.analysis import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"
FIXTURE = Path(__file__).parent / "fixtures" / "bad_lock_discipline.py"


class TestRepoInvariants:
    def test_the_repo_itself_is_clean(self):
        report = lint_paths([str(PACKAGE)])
        assert report.ok, [str(f) for f in report.findings]

    def test_fixture_module_is_flagged(self):
        report = lint_paths([str(FIXTURE)])
        codes = set(report.codes())
        assert "CD001" in codes
        assert "CD003" in codes
        assert "CD004" in codes
        # Findings point at real lines of the fixture.
        assert all(
            finding.path and finding.line for finding in report.findings
        )


class TestLintSource:
    def test_lock_mutation_flagged(self):
        source = (
            "def sneak(managed, name):\n"
            "    managed.write_holders.add(name)\n"
        )
        findings = lint_source("sneak.py", source)
        assert [f.rule.code for f in findings] == ["CD001"]
        assert findings[0].line == 2

    def test_suppression_comment_honoured(self):
        source = (
            "def sneak(managed, name):\n"
            "    managed.write_holders.add(name)"
            "  # repro-lint: ignore[CD001]\n"
        )
        assert lint_source("sneak.py", source) == []

    def test_bare_suppression_covers_all_codes(self):
        source = (
            "def sneak(txn):\n"
            "    txn.status = 'COMMITTED'  # repro-lint: ignore\n"
        )
        assert lint_source("sneak.py", source) == []

    def test_unparseable_module_is_cd000(self):
        findings = lint_source("broken.py", "def oops(:\n")
        assert [f.rule.code for f in findings] == ["CD000"]

    def test_self_mutation_is_allowed_in_owner_modules(self):
        source = (
            "class ManagedObject:\n"
            "    def grant(self, name):\n"
            "        self.write_holders.add(name)\n"
        )
        path = "src/repro/engine/lockmanager.py"
        assert lint_source(path, source) == []


class TestCD005:
    """Self-receiver lock-state mutation outside the owner modules."""

    SOURCE = (
        "class ShadowTable:\n"
        "    def grant(self, name):\n"
        "        self.write_holders.add(name)\n"
    )

    def test_self_mutation_elsewhere_is_cd005(self):
        findings = lint_source("rogue.py", self.SOURCE)
        assert [f.rule.code for f in findings] == ["CD005"]
        assert findings[0].line == 3

    def test_every_owner_module_is_exempt(self):
        from repro.analysis.codelint import LOCK_OWNER_MODULES

        for suffix in LOCK_OWNER_MODULES:
            assert lint_source("src/" + suffix, self.SOURCE) == []

    def test_init_is_exempt(self):
        source = (
            "class ShadowTable:\n"
            "    def __init__(self):\n"
            "        self.versions = {}\n"
            "        self.versions['x'] = 0\n"
        )
        assert lint_source("rogue.py", source) == []

    def test_item_assignment_is_cd005(self):
        source = (
            "class ShadowTable:\n"
            "    def install(self, name, value):\n"
            "        self.versions[name] = value\n"
        )
        findings = lint_source("rogue.py", source)
        assert [f.rule.code for f in findings] == ["CD005"]

    def test_attribute_reassignment_is_cd005(self):
        source = (
            "class ShadowTable:\n"
            "    def reset(self):\n"
            "        self.read_holders = set()\n"
        )
        findings = lint_source("rogue.py", source)
        assert [f.rule.code for f in findings] == ["CD005"]

    def test_suppression_comment_honoured(self):
        source = (
            "class ShadowTable:\n"
            "    def grant(self, name):\n"
            "        self.write_holders.add(name)"
            "  # repro-lint: ignore[CD005]\n"
        )
        assert lint_source("rogue.py", source) == []

    def test_reads_are_not_flagged(self):
        source = (
            "class ShadowTable:\n"
            "    def holds(self, name):\n"
            "        return name in self.write_holders\n"
        )
        assert lint_source("rogue.py", source) == []


class TestCD006:
    """The frame codec's checksum stays in ``repro.core.framing``."""

    FIXTURE = FIXTURE.parent / "bad_private_framing.py"

    def test_fixture_module_is_flagged(self):
        report = lint_paths([str(self.FIXTURE)])
        assert [f.rule.code for f in report.findings] == ["CD006"] * 2
        # The ``from zlib import crc32`` and the ``zlib.crc32`` call.
        assert [finding.line for finding in report.findings] == [6, 14]

    def test_allowed_modules_are_exempt(self):
        from repro.analysis.codelint import CRC_MODULES

        source = "import zlib\nvalue = zlib.crc32(b'x')\n"
        assert [
            f.rule.code for f in lint_source("src/repro/wal/log.py", source)
        ] == ["CD006"]
        for suffix in CRC_MODULES:
            assert lint_source("src/" + suffix, source) == []
