"""Tests for the memoized extraction service (repro.service).

Covers the bounded caches, the priority scheduler, the traffic generator,
the HTTP front door, and the headline guarantee: a cache hit replays rows
byte-identical to a cold solve, under every executor backend.
"""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from repro import Box, Conductor, FRWConfig, Structure
from repro.errors import ConfigError, GeometryError
from repro.frw.context import SharedAssets, build_context
from repro.frw.solver import FRWSolver
from repro.geometry import structure_to_dict
from repro.greens import get_cube_table
from repro.service import (
    ExtractionService,
    LRUCache,
    ServiceClient,
    ServiceSettings,
    TrafficGenerator,
    canonical_hash,
    canonicalize,
    permute_structure,
    run_server,
    server,
    translate_structure,
)
from repro.structures import parallel_wires

BASE_CONFIG = {
    "seed": 3,
    "max_walks": 256,
    "min_walks": 128,
    "batch_size": 128,
    "tolerance": 0.5,
    "n_threads": 2,
}

#: Retired config knobs, each with the value its last default had.  The
#: behaviour they selected is fixed now (``rng`` and ``summation`` follow
#: ``variant``), so a request naming one is malformed rather than
#: silently ignored.
REMOVED_CONFIG_FIELDS = {
    "rng": "philox",
    "summation": "kahan",
    "pipeline": True,
    "rng_prefetch_depth": 8,
    "interleave_masters": True,
    "allocation": "even",
    "allocation_hysteresis": 0.25,
    "max_inflight_batches": 0,
    "far_field": True,
    "chunk_size": 0,
    "pipeline_lookahead": 1,
    "antithetic_group": 4,
    "mp_start_method": "auto",
    "antithetic_depth": 2,
    "sanitize": False,
}


#: Request configs that conflict with antithetic sampling, which is on
#: unless a request turns it off.
ANTITHETIC_CONFLICTS = {
    "mt": {"variant": "frw-nc"},
    "alg1": {"variant": "alg1"},
    "odd_batch": {"batch_size": 127},
    "min_walks": {"min_walks": 3},
}

#: Structure documents whose dielectric or enclosure has the wrong shape.
MALFORMED_FIELDS = {
    "dielectric": {"dielectric": [1, 2]},
    "enclosure": {"enclosure": [0, 0, 0]},
}


def small_structure(n_wires: int = 2) -> Structure:
    return parallel_wires(
        n_wires=n_wires, width=0.5, spacing=0.5, thickness=0.5, length=4.0
    )


def request_for(structure, priority="interactive", masters=None, config=None):
    payload = {
        "structure": structure_to_dict(structure),
        "config": dict(config if config is not None else BASE_CONFIG),
        "priority": priority,
    }
    if masters is not None:
        payload["masters"] = masters
    return payload


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------

class TestLRUCache:
    def test_bound_and_eviction_order(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_counters_and_hit_rate(self):
        cache = LRUCache(max_entries=4)
        assert cache.get("x") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)


# ----------------------------------------------------------------------
# One cache per structure asset
# ----------------------------------------------------------------------

class TestSharedAssetsBounds:
    def test_tables_come_from_one_memo(self):
        """Every context holds the process-wide memoized table, whichever
        solver's SharedAssets built its index."""
        structure = small_structure()
        config = FRWConfig(**BASE_CONFIG)
        first = build_context(structure, 0, config, SharedAssets(structure))
        second = build_context(structure, 1, config, SharedAssets(structure))
        assert first.index is not second.index
        assert first.table is get_cube_table(config.table_resolution)
        assert second.table is first.table

    def test_counters_flow_into_result_meta(self):
        structure = small_structure()
        solver = FRWSolver(structure, FRWConfig(**BASE_CONFIG))
        result = solver.extract([0, 1])
        solver.close()
        cache_meta = result.matrix.meta["schedule"]["asset_cache"]
        assert cache_meta == {"index_builds": 1, "index_hits": 1}


# ----------------------------------------------------------------------
# Priority scheduling
# ----------------------------------------------------------------------

class TestPriorityScheduling:
    def test_pick_class_prefers_interactive(self):
        service = ExtractionService(ServiceSettings(slots=1))
        service.close()  # workers gone; scheduling logic is still testable
        service._queues["interactive"].append("i")
        service._queues["bulk"].extend(["b"] * 50)
        assert service._pick_class() == "interactive"
        service._queues["interactive"].clear()
        assert service._pick_class() == "bulk"
        service._queues["bulk"].clear()
        assert service._pick_class() is None

    @pytest.mark.parametrize(
        "slots,table",
        [
            (1, {(0, 0): "interactive"}),
            (2, {(0, 0): "interactive", (1, 0): "bulk", (0, 1): "interactive"}),
            (
                3,
                {
                    (0, 0): "interactive",
                    (1, 0): "bulk",
                    (0, 1): "interactive",
                    (2, 0): "bulk",
                    (1, 1): "interactive",
                    (0, 2): "interactive",
                },
            ),
        ],
        ids=["1", "2", "3"],
    )
    def test_pick_class_state_table(self, slots, table):
        """``(interactive running, bulk running) -> pick`` for every state
        with a free slot while both classes queue: interactive first, bulk
        only while interactive holds a slot and bulk none.  A deep bulk
        queue never takes the only slot, and at two slots both classes
        run."""
        service = ExtractionService(ServiceSettings(slots=slots))
        service.close()
        service._queues["interactive"].append("i")
        service._queues["bulk"].extend(["b"] * 1000)
        assert set(table) == {
            (i, b) for i in range(slots) for b in range(slots - i)
        }
        for (i, b), pick in table.items():
            service._running.update(interactive=i, bulk=b)
            assert service._pick_class() == pick, (i, b)

    def test_interactive_overtakes_queued_bulk(self):
        """With one slot, an interactive request jumps the bulk backlog."""
        service = ExtractionService(ServiceSettings(slots=1))
        try:
            done = []
            futures = []
            for k in range(3):
                payload = request_for(
                    small_structure(), priority="bulk", config={
                        **BASE_CONFIG, "seed": 10 + k,
                    },
                )
                fut = service.submit(payload)
                fut.add_done_callback(
                    lambda _f, k=k: done.append(f"bulk{k}")
                )
                futures.append(fut)
            interactive = service.submit(
                request_for(
                    small_structure(3),
                    priority="interactive",
                    config={**BASE_CONFIG, "seed": 20},
                )
            )
            interactive.add_done_callback(lambda _f: done.append("interactive"))
            futures.append(interactive)
            for fut in futures:
                fut.result(timeout=300)
            # bulk0 may already be running when the interactive request
            # lands, but the interactive one must not wait behind the
            # whole bulk queue.
            assert done.index("interactive") <= 1, done
        finally:
            service.close()


# ----------------------------------------------------------------------
# Memoization semantics
# ----------------------------------------------------------------------

class TestMemoization:
    def test_full_hit_replays_identical_rows(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            payload = request_for(small_structure())
            cold = service.submit(payload).result(timeout=300)
            warm = service.submit(payload).result(timeout=30)
            assert not cold["cached"] and warm["cached"]
            assert json.dumps(cold["rows"]) == json.dumps(warm["rows"])
            assert service.full_hits == 1 and service.solves == 1

    def test_disguised_duplicate_hits_and_relabels(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            structure = small_structure()
            cold = service.submit(request_for(structure)).result(timeout=300)
            disguised = permute_structure(
                translate_structure(structure, (2.0, -1.5, 0.25)),
                [1, 0],
                ["other", "names"],
            )
            warm = service.submit(request_for(disguised)).result(timeout=30)
            assert warm["cached"]
            assert warm["canonical_hash"] == cold["canonical_hash"]
            # Request master 0 of the disguise is master 1 of the original;
            # its columns come back permuted to the disguise's enumeration.
            v_cold = cold["rows"][1]["values"]
            assert warm["rows"][0]["values"] == [v_cold[1], v_cold[0], v_cold[2]]
            assert warm["rows"][0]["name"] == "other"

    def test_partial_hit_solves_only_missing_masters(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            structure = small_structure()
            first = service.submit(
                request_for(structure, masters=[0])
            ).result(timeout=300)
            both = service.submit(
                request_for(structure, masters=[0, 1])
            ).result(timeout=300)
            assert not both["cached"]  # master 1 had to be solved
            assert both["rows"][0]["values"] == first["rows"][0]["values"]
            # Row 0 was not recomputed: two solve passes total.
            assert service.solves == 2

    def test_result_eviction_recomputes_identically(self):
        settings = ServiceSettings(slots=1, result_cache_entries=2)
        with ExtractionService(settings) as service:
            structure = small_structure()
            cold = service.submit(request_for(structure)).result(timeout=300)
            # Two rows fill the cache; a different net evicts them.
            other = parallel_wires(
                n_wires=2, width=0.75, spacing=0.75, thickness=0.5, length=4.0
            )
            service.submit(request_for(other)).result(timeout=300)
            assert service.results.evictions >= 2
            again = service.submit(request_for(structure)).result(timeout=300)
            assert not again["cached"]  # evicted, recomputed...
            assert json.dumps(again["rows"]) == json.dumps(cold["rows"])

    def test_different_seed_misses(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            structure = small_structure()
            a = service.submit(request_for(structure)).result(timeout=300)
            b = service.submit(
                request_for(structure, config={**BASE_CONFIG, "seed": 4})
            ).result(timeout=300)
            assert not b["cached"]
            assert a["canonical_hash"] != b["canonical_hash"]

    def test_request_validation(self):
        with ExtractionService(ServiceSettings(slots=1)) as service:
            with pytest.raises(ConfigError):
                service.submit({"config": {}})
            structure = structure_to_dict(small_structure())
            with pytest.raises(ConfigError):
                service.submit(
                    {"structure": structure, "config": {"nope": 1}}
                )
            with pytest.raises(ConfigError):
                service.submit({"structure": structure, "masters": [0, 0]})
            with pytest.raises(ConfigError):
                service.submit({"structure": structure, "masters": [9]})
            with pytest.raises(ConfigError):
                service.submit({"structure": structure, "priority": "vip"})

    @pytest.mark.parametrize("masters", [[1.7], [True], ["1"], [0, 1.0], 1])
    def test_masters_must_be_integer_indices(self, masters):
        """A master index that is not an integer is refused, not rounded:
        ``1.7`` and ``true`` would otherwise solve master 1."""
        with ExtractionService(ServiceSettings(slots=1)) as service:
            with pytest.raises(ConfigError, match="masters must be a list"):
                service.submit(request_for(small_structure(), masters=masters))

    def test_settings_reject_thread_executor(self):
        """The executor is no setting: the worker count alone picks it, so
        ``executor=`` is rejected like any unknown field and settings
        carry no executor name."""
        with pytest.raises(TypeError, match="executor"):
            ServiceSettings(executor="thread")
        assert not hasattr(ServiceSettings(), "executor")
        for n in (0, 1, 2, 4):
            ServiceSettings(n_workers=n).validate()

    def test_settings_validate_engine_eagerly(self):
        """A bad worker count fails at validation, not when a slot first
        builds its executor."""
        with pytest.raises(ConfigError, match="n_workers"):
            ServiceSettings(n_workers=-1).validate()

    def test_removed_config_field_is_unknown(self):
        """Every retired engine knob is rejected as an unknown field (a
        typed ConfigError naming it), never passed on to FRWConfig."""
        with ExtractionService(ServiceSettings(slots=1)) as service:
            for name, value in sorted(REMOVED_CONFIG_FIELDS.items()):
                config = {**BASE_CONFIG, name: value}
                with pytest.raises(
                    ConfigError, match=rf"unknown config field\(s\): {name}$"
                ):
                    service.submit(request_for(small_structure(), config=config))

    @pytest.mark.parametrize("field", sorted(MALFORMED_FIELDS))
    def test_malformed_structure_is_a_geometry_error(self, field):
        structure = {
            **structure_to_dict(small_structure()), **MALFORMED_FIELDS[field]
        }
        with ExtractionService(ServiceSettings(slots=1)) as service:
            with pytest.raises(GeometryError, match="malformed structure"):
                service.submit({"structure": structure})

    def test_submit_after_close_raises(self):
        service = ExtractionService(ServiceSettings(slots=1))
        service.close()
        with pytest.raises(ConfigError):
            service.submit(request_for(small_structure()))

    def test_one_slot_two_h_caps_match_fresh_solvers(self):
        """One slot solves a net at two ``h_cap_fraction`` values, each
        with its own index; both responses' rows are byte-equal to a
        fresh solver's rows of the canonical net."""
        structure = small_structure()
        form = canonicalize(structure)
        with ExtractionService(ServiceSettings(slots=1)) as service:
            for fraction in (0.25, 0.125):
                config = {**BASE_CONFIG, "h_cap_fraction": fraction}
                got = service.submit(
                    request_for(structure, config=config)
                ).result(timeout=300)
                cfg = FRWConfig(**config, executor="serial")
                with FRWSolver(form.structure, cfg) as solver:
                    ref = solver.extract()
                for row in got["rows"]:
                    want = ref.rows[form.to_canonical[row["master"]]]
                    for key in ("values", "sigma2", "hits"):
                        expected = form.map_row_values(getattr(want, key))
                        assert np.asarray(
                            row[key], dtype=expected.dtype
                        ).tobytes() == expected.tobytes()

    def test_stats_percentiles_are_nearest_rank(self):
        service = ExtractionService(ServiceSettings(slots=1))
        service.close()
        latency = service._percentiles([k / 1e3 for k in range(1, 101)])
        assert latency == {"count": 100, "p50_ms": 50.0, "p99_ms": 99.0}

    def test_full_hit_latency_covers_parsing(self, monkeypatch):
        """A full hit's recorded latency includes parsing and
        canonicalization, not just the cache lookup."""
        canonicalize = server.canonicalize

        def slow_canonicalize(structure):
            time.sleep(0.005)
            return canonicalize(structure)

        monkeypatch.setattr(server, "canonicalize", slow_canonicalize)
        with ExtractionService(ServiceSettings(slots=1)) as service:
            payload = request_for(small_structure())
            assert not service.submit(payload).result(timeout=300)["cached"]
            assert service.submit(payload).result(timeout=30)["cached"]
            # Two samples, the cold solve's and the full hit's, both
            # parsed slowly: the p50 is the smaller, so it holds only if
            # each latency covers its parsing (a cold solve may take less
            # than the 5 ms parse on its own).
            latency = service.stats()["latency"]["interactive"]
            assert latency["count"] == 2 and latency["p50_ms"] >= 5.0


@pytest.mark.parametrize(
    "engine",
    [
        {"n_workers": 1},
        {"n_workers": 2},
    ],
    ids=["serial", "process"],
)
def test_slot_executor_forgets_solved_contexts(engine):
    """A slot's executor outlives every request: after each response it
    holds no solved context, and its rows equal a fresh executor's."""
    nets = [
        small_structure(2),
        small_structure(3),
        parallel_wires(
            n_wires=2, width=0.75, spacing=0.75, thickness=0.5, length=4.0
        ),
    ]
    with ExtractionService(ServiceSettings(slots=1, **engine)) as service:
        for net in nets:
            got = service.submit(request_for(net)).result(timeout=300)
            assert service._executors[0]._registry == {}
            with ExtractionService(ServiceSettings(slots=1, **engine)) as fresh:
                ref = fresh.submit(request_for(net)).result(timeout=300)
            assert json.dumps(got["rows"]) == json.dumps(ref["rows"])


# ----------------------------------------------------------------------
# Golden byte-identity: cache hit == cold solve, across engines
# ----------------------------------------------------------------------

ENGINE_MATRIX = [{"n_workers": 1}, {"n_workers": 2}]


@pytest.mark.parametrize("engine", ENGINE_MATRIX, ids=["serial-1", "process-2"])
def test_golden_cache_hit_matches_cold_across_engines(engine):
    """The headline guarantee, certified per engine: a warm hit replays
    rows byte-identical to that engine's cold solve, and every engine's
    rows are byte-identical to the serial reference — which is what makes
    one cache entry valid for all engines."""
    structure = small_structure()
    payload = request_for(structure)
    with ExtractionService(ServiceSettings(slots=1)) as reference:
        ref_rows = json.dumps(
            reference.submit(payload).result(timeout=300)["rows"]
        )
    with ExtractionService(ServiceSettings(slots=1, **engine)) as service:
        cold = service.submit(payload).result(timeout=600)
        warm = service.submit(payload).result(timeout=30)
        assert not cold["cached"] and warm["cached"]
        assert json.dumps(cold["rows"]) == ref_rows
        assert json.dumps(warm["rows"]) == ref_rows


# ----------------------------------------------------------------------
# Traffic generator
# ----------------------------------------------------------------------

class TestTraffic:
    def test_deterministic_stream(self):
        a = TrafficGenerator(seed=5).requests(20)
        b = TrafficGenerator(seed=5).requests(20)
        assert a == b
        c = TrafficGenerator(seed=6).requests(20)
        assert a != c

    def test_duplicate_rate_and_mix(self):
        gen = TrafficGenerator(
            seed=1, duplicate_rate=0.5, interactive_fraction=0.75
        )
        batch = gen.requests(200)
        dups = sum(meta["duplicate"] for _p, meta in batch)
        interactive = sum(
            p["priority"] == "interactive" for p, _m in batch
        )
        assert 0.35 <= dups / len(batch) <= 0.65
        assert 0.6 <= interactive / len(batch) <= 0.9

    def test_zero_duplicate_rate(self):
        gen = TrafficGenerator(seed=2, duplicate_rate=0.0)
        assert not any(m["duplicate"] for _p, m in gen.requests(30))

    def test_duplicates_collide_only_through_canonicalization(self):
        gen = TrafficGenerator(seed=3, duplicate_rate=0.9)
        batch = gen.requests(40)
        seen: dict[int, tuple] = {}
        checked = 0
        for payload, meta in batch:
            from repro.geometry import structure_from_dict

            structure = structure_from_dict(payload["structure"])
            config = FRWConfig(**payload["config"])
            digest = canonical_hash(structure, config)
            if meta["duplicate"]:
                orig_payload, orig_digest = seen[meta["unique_index"]]
                assert digest == orig_digest
                # ... but the request bytes differ (disguise worked).
                assert payload["structure"] != orig_payload["structure"]
                checked += 1
            else:
                seen[meta["unique_index"]] = (payload, digest)
        assert checked > 5

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            TrafficGenerator(duplicate_rate=1.5)
        with pytest.raises(ValueError):
            TrafficGenerator(interactive_fraction=-0.1)


# ----------------------------------------------------------------------
# HTTP front door
# ----------------------------------------------------------------------

@pytest.fixture
def live_server():
    """A real server on an ephemeral port, in a background thread."""
    ready = threading.Event()
    bound = {}

    def _ready(port):
        bound["port"] = port
        ready.set()

    settings = ServiceSettings(port=0, slots=1)
    thread = threading.Thread(
        target=run_server, args=(settings,), kwargs={"ready": _ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30)
    client = ServiceClient(port=bound["port"])
    yield client
    client.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()


class TestHTTP:
    def test_end_to_end(self, live_server):
        client = live_server
        assert client.health()["ok"] is True
        structure = small_structure()
        cold = client.extract(structure, BASE_CONFIG)
        warm = client.extract(structure, BASE_CONFIG)
        assert not cold["cached"] and warm["cached"]
        assert json.dumps(cold["rows"]) == json.dumps(warm["rows"])
        stats = client.stats()
        assert stats["full_hits"] == 1
        assert stats["result_cache"]["hits"] >= 2

    def test_wire_level_byte_identity(self, live_server):
        client = live_server
        structure = small_structure(3)
        _s1, b1 = client.extract_raw(structure, BASE_CONFIG)
        _s2, b2 = client.extract_raw(structure, BASE_CONFIG)
        rows1 = json.loads(b1)["rows"]
        rows2 = json.loads(b2)["rows"]
        enc = json.dumps(rows1, sort_keys=True, separators=(",", ":"))
        assert enc == json.dumps(rows2, sort_keys=True, separators=(",", ":"))
        # The full bodies differ only in the "cached" flag.
        assert b1.replace(b'"cached":false', b'"cached":true') == b2

    def test_http_errors(self, live_server):
        client = live_server
        status, body = client._request("GET", "/missing")
        assert status == 404
        status, body = client._request(
            "POST", "/extract", {"structure": {"conductors": []}}
        )
        assert status == 400
        assert b"error" in body

    def test_oversize_body_is_413(self, live_server):
        """A declared body over the limit gets 413 with a JSON error, and
        the server keeps serving."""
        conn = HTTPConnection(live_server.host, live_server.port, timeout=30)
        try:
            conn.putrequest("POST", "/extract")
            conn.putheader("Content-Length", str(server.MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            status, body = response.status, response.read()
        finally:
            conn.close()
        assert status == 413
        assert "exceeds" in json.loads(body)["error"]
        assert live_server.health()["ok"] is True

    def test_deeply_nested_json_is_400(self, live_server):
        """A body nested past the JSON decoder's recursion limit is a
        client error, not a 500, and the server keeps serving."""
        conn = HTTPConnection(live_server.host, live_server.port, timeout=30)
        try:
            conn.request("POST", "/extract", body=b"[" * 100_000)
            response = conn.getresponse()
            status, body = response.status, response.read()
        finally:
            conn.close()
        assert status == 400
        assert "invalid JSON body" in json.loads(body)["error"]
        assert live_server.health()["ok"] is True

    @pytest.mark.parametrize(
        "sent",
        [
            b"GET /health HTTP/1.1\r\n",
            b"POST /extract HTTP/1.1\r\nContent-Length: 50\r\n\r\n[]",
        ],
        ids=["request-line-only", "short-body"],
    )
    def test_stalled_client_is_dropped(self, live_server, monkeypatch, sent):
        """A client that never finishes its request is disconnected
        unanswered after ``READ_REQUEST_S``, and the server keeps
        serving."""
        monkeypatch.setattr(server, "READ_REQUEST_S", 0.2)
        address = (live_server.host, live_server.port)
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(sent)
            assert sock.recv(1024) == b""  # closed, no response
        assert live_server.health()["ok"] is True

    def test_removed_config_field_is_400(self, live_server):
        for name, value in sorted(REMOVED_CONFIG_FIELDS.items()):
            config = {**BASE_CONFIG, name: value}
            status, body = live_server._request(
                "POST", "/extract", request_for(small_structure(), config=config)
            )
            assert status == 400, name
            assert json.loads(body)["error"].endswith(
                f"unknown config field(s): {name}"
            )

    @pytest.mark.parametrize(
        "request_fields",
        [
            {"masters": [1.7]},
            {"masters": [True]},
            {"config": {**BASE_CONFIG, "seed": 1.5}},
            {"config": {**BASE_CONFIG, "antithetic": "no"}},
        ],
        ids=["fractional-master", "bool-master", "float-seed", "string-flag"],
    )
    def test_untyped_request_is_400(self, live_server, request_fields):
        payload = {**request_for(small_structure()), **request_fields}
        status, body = live_server._request("POST", "/extract", payload)
        assert status == 400
        assert " must be " in json.loads(body)["error"]

    @pytest.mark.parametrize("conflict", sorted(ANTITHETIC_CONFLICTS))
    def test_antithetic_conflict_is_400_naming_the_fix(self, live_server, conflict):
        """A config the antithetic default rejects gets 400 with the
        ConfigError that names ``antithetic=False``; with it, the same
        request solves."""
        config = {**BASE_CONFIG, **ANTITHETIC_CONFLICTS[conflict]}
        status, body = live_server._request(
            "POST", "/extract", request_for(small_structure(), config=config)
        )
        assert status == 400
        assert "pass antithetic=False" in json.loads(body)["error"]
        config["antithetic"] = False
        assert not live_server.extract(small_structure(), config)["cached"]

    @pytest.mark.parametrize("field", sorted(MALFORMED_FIELDS))
    def test_malformed_structure_is_400(self, live_server, field):
        structure = {
            **structure_to_dict(small_structure()), **MALFORMED_FIELDS[field]
        }
        status, body = live_server._request(
            "POST", "/extract", {"structure": structure}
        )
        assert status == 400
        assert "malformed structure" in json.loads(body)["error"]

    def test_unexpected_error_is_500(self, live_server):
        """An exception the router does not expect still gets a JSON 500,
        and the server keeps serving."""

        def broken_submit(self, request):
            raise RuntimeError("submit failed")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExtractionService, "submit", broken_submit)
            status, body = live_server._request(
                "POST", "/extract", request_for(small_structure())
            )
        assert status == 500
        assert json.loads(body) == {"error": "RuntimeError: submit failed"}
        assert live_server.health()["ok"] is True
        assert not live_server.extract(small_structure(), BASE_CONFIG)["cached"]
