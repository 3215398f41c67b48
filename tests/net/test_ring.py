"""Property tests for the consistent-hash ring.

The two claims that justify replacing ``hash mod N``:

* **Locality** — adding or removing one shard remaps only the keys in
  the changed arcs, about 1/N of a random namespace (asserted at a
  generous ≤ 1.5/N across randomized namespaces and shard counts;
  ``mod N`` would remap ~(N-1)/N).
* **Stability** — the assignment is a pure function of the bytes, not
  of interpreter state: a subprocess with a different PYTHONHASHSEED
  reproduces it exactly.
"""

import random
import subprocess
import sys

import pytest

from repro.net import HashRing, ShardedScopeManager, shard_of

pytestmark = pytest.mark.faults


def random_names(rng, count):
    return [
        "sig-%d-%s" % (i, "".join(rng.choices("abcdefghij", k=6)))
        for i in range(count)
    ]


class TestRemapLocality:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", (4, 8, 16))
    def test_single_add_remaps_at_most_1_5_over_n(self, seed, n):
        rng = random.Random(seed)
        names = random_names(rng, 2000)
        ring = HashRing(range(n))
        before = {name: ring.locate(name) for name in names}
        ring.add(n)
        moved = sum(1 for name in names if ring.locate(name) != before[name])
        assert moved / len(names) <= 1.5 / n
        # Every moved key must have moved TO the new shard: an add only
        # steals arcs, it never shuffles keys between survivors.
        for name in names:
            if ring.locate(name) != before[name]:
                assert ring.locate(name) == n

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", (4, 8, 16))
    def test_single_remove_remaps_at_most_1_5_over_n(self, seed, n):
        rng = random.Random(seed)
        names = random_names(rng, 2000)
        ring = HashRing(range(n))
        before = {name: ring.locate(name) for name in names}
        victim = rng.randrange(n)
        ring.remove(victim)
        moved = 0
        for name in names:
            after = ring.locate(name)
            if after != before[name]:
                moved += 1
                # Only the victim's keys move.
                assert before[name] == victim
            assert after != victim
        assert moved / len(names) <= 1.5 / n

    def test_spread_is_roughly_uniform(self):
        rng = random.Random(0)
        names = random_names(rng, 8000)
        ring = HashRing(range(8))
        counts = {i: 0 for i in range(8)}
        for name in names:
            counts[ring.locate(name)] += 1
        expected = len(names) / 8
        for shard, count in counts.items():
            assert 0.5 * expected < count < 1.6 * expected, (shard, count)


class TestStability:
    def test_assignment_is_interpreter_independent(self):
        """A subprocess with a different hash seed agrees exactly."""
        names = ["alpha", "beta", "gamma", "net.rx.bytes", "cpu0.idle"]
        local = [shard_of(name, 8) for name in names]
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.net.shard import shard_of; "
            "print([shard_of(n, 8) for n in %r])" % (names,)
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        )
        assert eval(out.stdout.strip()) == local

    def test_locate_is_idempotent_across_rebuilds(self):
        names = random_names(random.Random(1), 500)
        a = HashRing(range(6))
        b = HashRing(range(6))
        assert [a.locate(n) for n in names] == [b.locate(n) for n in names]

    def test_empty_ring_refuses_to_route(self):
        with pytest.raises(ValueError):
            HashRing().locate("anything")


class TestShardedMembership:
    """Live add/remove on a ShardedScopeManager rides the same ring."""

    def test_add_shard_migrates_scopes_to_new_homes(self):
        sharded = ShardedScopeManager(shards=3)
        names = random_names(random.Random(2), 40)
        for name in names:
            sharded.scope_new(name, period_ms=50)
        before = {name: sharded.shard_of(name) for name in names}
        version_before = sharded.topology_version
        new_id = sharded.add_shard()
        assert new_id == 3
        assert sharded.topology_version != version_before
        moved = 0
        for name in names:
            home = sharded.shard_of(name)
            # The scope lives where its name now routes.
            assert name in sharded.manager_of(home)
            if home != before[name]:
                moved += 1
                assert home == new_id
        assert moved <= len(names)  # and typically ~len/4

    def test_remove_shard_preserves_scopes_and_counters(self):
        sharded = ShardedScopeManager(shards=4)
        names = random_names(random.Random(3), 30)
        for name in names:
            sharded.scope_new(name, period_ms=50, delay_ms=1e9)
        # Push through one name so a shard has non-zero counters.
        target = names[0]
        victim = sharded.shard_of(target)
        scope = sharded.scope(target)
        from repro.core.signal import buffer_signal

        scope.signal_new(buffer_signal(target))
        sharded.push_samples(target, [0.0, 1.0], [1.0, 2.0])
        offered_before = sharded.totals()["offered"]
        assert offered_before == 2

        sharded.remove_shard(victim)
        assert sharded.n_shards == 3
        assert victim not in sharded.shard_ids
        # Every scope survived, now living on the remaining shards.
        for name in names:
            assert name in sharded
        # Retired counters still count.
        assert sharded.totals()["offered"] == offered_before

    def test_cannot_remove_last_shard(self):
        sharded = ShardedScopeManager(shards=1)
        with pytest.raises(ValueError):
            sharded.remove_shard(0)

    def test_route_cache_invalidated_on_membership_change(self):
        sharded = ShardedScopeManager(shards=2)
        names = random_names(random.Random(4), 200)
        first = {name: sharded.shard_of(name) for name in names}  # warm cache
        sharded.add_shard()
        second = {name: sharded.shard_of(name) for name in names}
        # At least one name must re-route (2000+ vnode arcs changed);
        # a stale cache would freeze the old answers.
        assert first != second
        fresh = ShardedScopeManager(shards=3)
        assert second == {name: fresh.shard_of(name) for name in names}
