"""The typed StoreSpec layer: parsing, rendering, builders, validation.

Complemented by ``tests/property/test_prop_storage_spec.py`` (the
hypothesis round-trip property) and the conformance suite (which proves
every documented URI still *opens*); this file pins the golden cases:
exact spec shapes for each grammar form, the builder API, and the
error messages — misspelled schemes and options must name a suggestion,
and unknown options must raise instead of being silently ignored.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgument
from repro.storage import build, open_store, parse_spec, registered_schemes
from repro.storage import spec as specs
from repro.storage.spec import (
    CachedSpec,
    FailingSpec,
    FileSpec,
    JournalSpec,
    LazySpec,
    MemSpec,
    RemoteSpec,
    ReplicaSpec,
    ShardSpec,
    SlowSpec,
    SpecError,
    SqliteSpec,
)


class TestParseLeafForms:
    def test_mem_plain(self):
        assert parse_spec("mem://") == MemSpec()

    def test_mem_geometry(self):
        assert parse_spec("mem://?blocks=7&bs=1024") == MemSpec(blocks=7,
                                                               bs=1024)

    def test_file_and_sqlite_paths(self):
        assert parse_spec("file:///tmp/a.img") == FileSpec(path="/tmp/a.img")
        assert parse_spec("sqlite://:memory:") == SqliteSpec(path=":memory:")

    def test_remote_endpoint_and_options(self):
        assert parse_spec(
            "remote://127.0.0.1:9001?timeout=2.5&batch=off&workers=3"
        ) == RemoteSpec(host="127.0.0.1", port=9001, timeout=2.5,
                        batch=False, workers=3)

    def test_missing_paths_rejected(self):
        with pytest.raises(SpecError, match="file:// needs a path"):
            parse_spec("file://")
        with pytest.raises(SpecError, match="sqlite:// needs a path"):
            parse_spec("sqlite://")
        with pytest.raises(SpecError, match="host:port"):
            parse_spec("remote://nohost")


class TestParseCompositeForms:
    def test_shard_count_form_expands_children(self):
        assert parse_spec("shard://3") == ShardSpec(
            shards=[MemSpec(), MemSpec(), MemSpec()]
        )

    def test_shard_count_form_with_file_base(self, tmp_path):
        spec = parse_spec(f"shard://2?base=file&dir={tmp_path}&bs=512")
        assert spec == ShardSpec(shards=[
            FileSpec(path=f"{tmp_path}/shard-0.blk", bs=512),
            FileSpec(path=f"{tmp_path}/shard-1.blk", bs=512),
        ])

    def test_shard_explicit_children_and_fanout(self):
        assert parse_spec("shard://mem://;mem://#fanout=2") == ShardSpec(
            shards=[MemSpec(), MemSpec()], fanout=2
        )

    def test_replica_template_form(self):
        spec = parse_spec("replica://2/failing://mem://#w=2&r=1")
        assert spec == ReplicaSpec(
            replicas=[FailingSpec(child=MemSpec()),
                      FailingSpec(child=MemSpec())],
            w=2, r=1,
        )

    def test_replica_template_index_substitution(self, tmp_path):
        spec = parse_spec(f"replica://2/file://{tmp_path}/r-{{i}}.img#w=1")
        assert spec == ReplicaSpec(replicas=[
            FileSpec(path=f"{tmp_path}/r-0.img"),
            FileSpec(path=f"{tmp_path}/r-1.img"),
        ], w=1)

    def test_replica_new_options(self):
        spec = parse_spec(
            "replica://mem://;mem://;mem://#w=2&r=2&hedge_ms=5&stamps=/tmp/s"
        )
        assert spec == ReplicaSpec(
            replicas=[MemSpec()] * 3, w=2, r=2, hedge_ms=5.0,
            stamps="/tmp/s",
        )

    def test_wrapper_forms(self, tmp_path):
        assert parse_spec("cached://mem://#capacity=16") == CachedSpec(
            child=MemSpec(), capacity=16
        )
        assert parse_spec(
            f"journal://mem://#path={tmp_path}/j&cap=8"
        ) == JournalSpec(child=MemSpec(), cap=8, path=f"{tmp_path}/j")
        assert parse_spec("lazy://mem://#retry=0.5") == LazySpec(
            child=MemSpec(), retry=0.5
        )
        assert parse_spec("slow://mem://#ms=5") == SlowSpec(child=MemSpec(),
                                                            ms=5.0)
        assert parse_spec("failing://mem://#fail=1") == FailingSpec(
            child=MemSpec(), fail=True
        )

    def test_nested_composite_with_inner_fragment(self):
        spec = parse_spec("replica://slow://mem://#ms=1;mem://;mem://#w=2&r=2")
        assert spec == ReplicaSpec(
            replicas=[SlowSpec(child=MemSpec(), ms=1.0), MemSpec(),
                      MemSpec()],
            w=2, r=2,
        )

    def test_deep_nesting(self, tmp_path):
        spec = parse_spec(
            f"cached://journal://file://{tmp_path}/x.img#capacity=8"
        )
        assert spec == CachedSpec(
            child=JournalSpec(child=FileSpec(path=f"{tmp_path}/x.img")),
            capacity=8,
        )


class TestRendering:
    def test_count_form_canonicalizes_to_explicit(self):
        assert parse_spec("shard://2").to_uri() == "shard://mem://;mem://"

    def test_options_render_only_when_set(self):
        assert parse_spec("cached://mem://").to_uri() == "cached://mem://"
        assert parse_spec("cached://mem://#capacity=4").to_uri() == \
            "cached://mem://#capacity=4"

    def test_ambiguous_nested_multichild_rejected(self):
        nested = specs.cached(specs.shard(specs.mem(), specs.mem()))
        # legal as the sole child of a wrapper...
        assert nested.to_uri() == "cached://shard://mem://;mem://"
        # ...but not inside a semicolon list, where the parent would
        # re-split the child at its own semicolons.
        with pytest.raises(SpecError, match="semicolon"):
            specs.shard(nested, specs.mem()).to_uri()

    def test_ambiguous_trailing_fragment_rejected(self):
        inner = specs.failing(specs.mem(), fail=True)
        outer = specs.failing(inner)  # outer has no options of its own
        with pytest.raises(SpecError, match="re-parse"):
            outer.to_uri()


class TestBuilders:
    def test_issue_example_shape(self):
        spec = specs.shard(specs.remote("h1:9001"), specs.remote("h2:9001"),
                           fanout=4)
        assert spec == ShardSpec(
            shards=[RemoteSpec(host="h1", port=9001),
                    RemoteSpec(host="h2", port=9001)],
            fanout=4,
        )
        assert spec.to_uri() == \
            "shard://remote://h1:9001;remote://h2:9001#fanout=4"

    def test_builders_accept_uri_strings(self):
        assert specs.cached("mem://", capacity=4) == CachedSpec(
            child=MemSpec(), capacity=4
        )

    def test_builder_validation_is_immediate(self):
        with pytest.raises(SpecError, match="write quorum"):
            specs.replica(specs.mem(), specs.mem(), w=3)
        with pytest.raises(SpecError, match="fanout"):
            specs.shard(specs.mem(), fanout=0)
        with pytest.raises(SpecError, match="capacity"):
            specs.cached(specs.mem(), capacity=0)

    def test_open_store_accepts_specs(self):
        store = open_store(specs.cached(specs.mem(), capacity=4),
                           num_blocks=16, block_size=512)
        try:
            store.write(3, b"via spec")
            assert store.read(3).startswith(b"via spec")
            assert store.capacity == 4
        finally:
            store.close()

    def test_build_equals_uri_pipeline(self):
        via_uri = open_store("shard://3", num_blocks=64, block_size=512)
        via_spec = build(parse_spec("shard://3"), num_blocks=64,
                         block_size=512)
        try:
            for block_no in range(64):
                assert via_uri.shard_for(block_no) == \
                    via_spec.shard_for(block_no)
        finally:
            via_uri.close()
            via_spec.close()


class TestGoldenErrors:
    """Misspellings must point at the right name; unknown options raise."""

    def test_scheme_typo_suggestions(self):
        with pytest.raises(InvalidArgument, match="did you mean 'shard'"):
            parse_spec("shrad://2")
        with pytest.raises(InvalidArgument, match="did you mean 'replica'"):
            parse_spec("replcia://3")
        with pytest.raises(InvalidArgument, match="did you mean 'cached'"):
            parse_spec("cache://mem://")

    def test_query_option_typo_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'workers'"):
            parse_spec("remote://h:1?workres=2")
        with pytest.raises(SpecError, match="did you mean 'blocks'"):
            parse_spec("mem://?blocs=7")

    def test_fragment_option_typo_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'fanout'"):
            parse_spec("shard://mem://;mem://#fanuot=2")
        with pytest.raises(SpecError, match="did you mean 'capacity'"):
            parse_spec("cached://mem://#capasity=8")
        with pytest.raises(SpecError, match="did you mean 'hedge_ms'"):
            parse_spec("replica://mem://;mem://#w=2&hedge_mss=5")

    def test_stray_fragment_never_leaks_into_a_path(self):
        """A typo'd overlay option sliding down to a path-addressed
        child must raise, not silently open a '#'-suffixed file."""
        with pytest.raises(SpecError, match="did you mean 'capacity'"):
            parse_spec("cached://file:///tmp/fs.img#capasity=8")
        with pytest.raises(SpecError, match="no #fragment"):
            parse_spec("sqlite:///tmp/fs.db#cap=8")
        # remote:// *does* take a fragment now (session options), so a
        # query option landing there gets redirected, not accepted.
        with pytest.raises(SpecError, match=r"belongs in the \?query"):
            parse_spec("remote://h:9001#workers=2")
        # ...including when it rides alongside real session options
        # (the mixed-fragment path must not suggest 'workers' to itself).
        with pytest.raises(SpecError, match=r"belongs in the \?query"):
            parse_spec("remote://h:9001#key=/tmp/k&workers=2")
        with pytest.raises(SpecError, match="did you mean 'workers'"):
            parse_spec("remote://h:9001#key=/tmp/k&wrokers=2")
        with pytest.raises(SpecError, match="unknown remote:// fragment"):
            parse_spec("remote://h:9001#credential=/tmp/c")

    def test_cross_scheme_suggestion_names_the_owner(self):
        with pytest.raises(SpecError, match=r"a cached:// option"):
            parse_spec("cached://mem://#capasity=8")

    def test_unknown_options_raise_not_ignored(self):
        # Before the spec layer these were silently dropped.
        with pytest.raises(SpecError, match="unknown"):
            parse_spec("mem://?bogus=1")
        with pytest.raises(SpecError, match="unknown"):
            parse_spec("remote://h:1?battch=off")
        with pytest.raises(SpecError):
            parse_spec("replica://3?wq=2")

    def test_errors_name_the_scheme(self):
        with pytest.raises(SpecError, match="replica:// write quorum"):
            parse_spec("replica://3?w=9")
        with pytest.raises(SpecError, match="slow:// option ms"):
            parse_spec("slow://mem://#ms=-1")
        with pytest.raises(SpecError, match="journal:// option cap"):
            parse_spec("journal://mem://#cap=0&path=/tmp/j")

    def test_invalid_geometry_rejected_at_parse_time(self):
        with pytest.raises(SpecError, match="blocks=0"):
            parse_spec("mem://?blocks=0")
        with pytest.raises(SpecError, match="multiple of 512"):
            parse_spec("mem://?bs=100")

    def test_malformed_option_values_rejected(self):
        with pytest.raises(SpecError, match="not an integer"):
            parse_spec("mem://?blocks=seven")
        with pytest.raises(SpecError, match="not a number"):
            parse_spec("slow://mem://#ms=fast")
        with pytest.raises(SpecError, match="not on/off"):
            parse_spec("remote://h:1?batch=maybe")


class TestSchemeRegistry:
    def test_every_registered_scheme_has_a_spec_type(self):
        assert set(registered_schemes()) == set(specs.known_schemes())

    def test_legacy_factory_registration_still_works(self):
        from repro.storage import MemoryBlockStore, register_scheme
        from repro.storage.registry import _FACTORIES

        def factory(rest, num_blocks, block_size):
            return MemoryBlockStore(num_blocks, block_size)

        register_scheme("customx", factory)
        try:
            assert "customx" in registered_schemes()
            spec = parse_spec("customx://whatever?opt=1")
            assert spec.to_uri() == "customx://whatever?opt=1"
            store = open_store("customx://", num_blocks=8, block_size=512)
            store.write(0, b"legacy")
            assert store.read(0).startswith(b"legacy")
            store.close()
        finally:
            _FACTORIES.pop("customx", None)

    def test_walk_visits_every_layer(self):
        spec = parse_spec("cached://shard://2#capacity=4")
        schemes = [s.scheme for s in spec.walk()]
        assert schemes == ["cached", "shard", "mem", "mem"]

    def test_legacy_factory_replaces_builtin_scheme(self):
        """register_scheme has always meant 'register OR REPLACE' —
        a replacement for a built-in must win over the typed spec."""
        from repro.storage import register_scheme
        from repro.storage.registry import _FACTORIES

        calls = []

        def factory(rest, num_blocks, block_size):
            from repro.storage import MemoryBlockStore

            calls.append(rest)
            return MemoryBlockStore(num_blocks, block_size)

        register_scheme("mem", factory)
        try:
            store = open_store("mem://", num_blocks=8, block_size=512)
            store.close()
            assert calls == [""]
        finally:
            _FACTORIES.pop("mem", None)
        # and the typed spec is back in charge afterwards
        assert parse_spec("mem://") == MemSpec()


class TestProgrammaticOnlyTopologies:
    """Specs with no URI form (nested multi-child composites) must
    still open, mount under FFS, and degrade lazily."""

    def _nested(self):
        return specs.replica(
            specs.shard(specs.mem(), specs.mem()),
            specs.shard(specs.mem(), specs.mem()),
            w=1, r=1,
        )

    def test_open_store_builds_unrepresentable_spec(self):
        store = open_store(self._nested(), num_blocks=64, block_size=512)
        try:
            store.write(5, b"no uri form")
            assert store.read(5).startswith(b"no uri form")
        finally:
            store.close()

    def test_ffs_mounts_unrepresentable_spec(self):
        from repro.fs.ffs import FFS

        store = open_store(self._nested(), num_blocks=64, block_size=512)
        try:
            fs = FFS(store)
            fs.write_file("/mounted.txt", b"no uri form")
            assert fs.read_file("/mounted.txt") == b"no uri form"
        finally:
            store.close()

    def test_replica_lazy_wraps_unrepresentable_down_child(self):
        """A down child whose spec has no URI form must still become a
        lazy wrapper (holding the spec object) instead of failing the
        whole quorum mount."""
        import socket

        from repro.storage import LazyBlockStore

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()  # endpoint now refuses connections
        nested_down = specs.shard(
            specs.remote(f"{host}:{port}", timeout=0.2),
            specs.remote(f"{host}:{port}", timeout=0.2),
        )
        store = open_store(
            specs.replica(nested_down, specs.mem(), w=1, r=1),
            num_blocks=64, block_size=512,
        )
        try:
            assert isinstance(store.children[0], LazyBlockStore)
            store.write(2, b"served by the quorum")
            store.drain()
            assert store.read(2).startswith(b"served by the quorum")
        finally:
            store.close()


class TestMeteredSpec:
    """The observability overlay's typed spec: parse, render, validate,
    and the standard typo-suggestion contract for its options."""

    def test_parse_and_round_trip(self):
        spec = parse_spec("metered://cached://mem://#slow_ms=50&ring=128")
        assert spec.scheme == "metered"
        assert spec.slow_ms == 50.0
        assert spec.ring == 128
        assert spec.child.scheme == "cached"
        assert spec.to_uri() == \
            "metered://cached://mem://#slow_ms=50.0&ring=128"

    def test_defaults_render_bare(self):
        assert parse_spec("metered://mem://").to_uri() == "metered://mem://"

    def test_builder(self):
        spec = specs.metered(specs.mem(), slow_ms=5.0, ring=64)
        assert spec.to_uri() == "metered://mem://#slow_ms=5.0&ring=64"

    def test_option_typo_suggestions(self):
        with pytest.raises(SpecError, match="did you mean 'slow_ms'"):
            parse_spec("metered://mem://#slow_mss=5")
        with pytest.raises(SpecError, match="did you mean 'ring'"):
            parse_spec("metered://mem://#rign=64")

    def test_scheme_typo_suggestion(self):
        with pytest.raises(InvalidArgument, match="did you mean 'metered'"):
            parse_spec("metred://mem://")

    def test_validation(self):
        with pytest.raises(SpecError, match="slow_ms"):
            parse_spec("metered://mem://#slow_ms=-1")
        with pytest.raises(SpecError, match="ring"):
            parse_spec("metered://mem://#ring=0")

    def test_options_reach_the_built_store(self):
        from repro.storage import open_store

        store = open_store("metered://mem://#slow_ms=7.5&ring=32")
        try:
            assert store.scheme == "metered"
            assert store.slow_ms == 7.5
        finally:
            store.close()
