"""The switch registry — ``describe()`` and docs drift.

Every engine switch (optimize / kernels / synopses / bufferpool /
preempt) resolves through one rule: explicit per-session value beats
the ``QueryOptions`` bundle, which beats the environment variable, which
beats the built-in default. :func:`repro.core.switches.describe` reports
each switch's resolved value *and the winning source*, and
:func:`switch_table_markdown` renders the precedence table embedded in
``docs/api.md`` — pinned here so the docs cannot drift from the registry.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.options import QueryOptions
from repro.core.switches import SWITCHES, describe, switch_table_markdown

ALL_ENV = [s.env for s in SWITCHES]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ALL_ENV:
        monkeypatch.delenv(name, raising=False)


def state(states, name):
    return next(s for s in states if s.name == name)


class TestDescribe:
    def test_covers_every_switch(self):
        states = describe()
        assert [s.name for s in states] == [s.name for s in SWITCHES]
        assert [s.name for s in SWITCHES] == [
            "optimize", "kernels", "synopses", "bufferpool", "preempt",
        ]

    def test_defaults_with_clean_env(self):
        states = describe()
        assert all(s.source == "default" for s in states)
        assert state(states, "optimize").value is True
        assert state(states, "kernels").value is True
        assert state(states, "synopses").value is False
        assert state(states, "bufferpool").value is True
        assert state(states, "preempt").value is False

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        monkeypatch.setenv("REPRO_BUFFERPOOL", " OFF ")
        states = describe()
        kernels = state(states, "kernels")
        assert (kernels.value, kernels.source) == (False, "env")
        bufferpool = state(states, "bufferpool")
        assert (bufferpool.value, bufferpool.source) == (False, "env")
        assert state(states, "optimize").source == "default"

    def test_options_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        monkeypatch.setenv("REPRO_SYNOPSES", "0")
        states = describe(options=QueryOptions(vectorized=True, synopses=True))
        kernels = state(states, "kernels")
        assert (kernels.value, kernels.source) == (True, "options")
        synopses = state(states, "synopses")
        assert (synopses.value, synopses.source) == (True, "options")

    def test_explicit_beats_options(self, monkeypatch):
        states = describe(
            options=QueryOptions(vectorized=True, synopses=True),
            explicit={"vectorized": False, "synopses": False},
        )
        kernels = state(states, "kernels")
        assert (kernels.value, kernels.source) == (False, "explicit")
        synopses = state(states, "synopses")
        assert (synopses.value, synopses.source) == (False, "explicit")

    def test_enabled_property_reads_the_value(self):
        states = describe(explicit={"bufferpool": False, "synopses": True})
        assert state(states, "bufferpool").enabled is False
        assert state(states, "synopses").enabled is True
        assert state(states, "optimize").enabled is True


class TestDocsTable:
    MARKER_BEGIN = "<!-- switches:begin -->"
    MARKER_END = "<!-- switches:end -->"

    def test_api_docs_table_matches_registry(self):
        """docs/api.md embeds exactly what switch_table_markdown renders."""
        api_md = (
            pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"
        ).read_text()
        assert self.MARKER_BEGIN in api_md and self.MARKER_END in api_md
        embedded = api_md.split(self.MARKER_BEGIN, 1)[1].split(
            self.MARKER_END, 1
        )[0].strip()
        assert embedded == switch_table_markdown().strip()

    def test_table_has_one_row_per_switch(self):
        table = switch_table_markdown()
        rows = [line for line in table.splitlines() if line.startswith("| ")]
        assert len(rows) == len(SWITCHES) + 1  # header + switches
