"""The per-edge priority queue discipline (Lemma 4.2 scheduling)."""

from repro.congest import Context, Engine, Inbox
from repro.core.queued import QueuedProgram
from repro.graphs import path_graph
from oracles import star_graph


class Funnel(QueuedProgram):
    """All leaves push packets to the hub through their single edges;
    the hub forwards everything to leaf 1, forcing serialization."""

    name = "funnel"

    def __init__(self, net, packets_per_leaf, capacity=1):
        super().__init__(capacity=capacity)
        self.net = net
        self.packets_per_leaf = packets_per_leaf
        self.delivered = []
        self.sent_log = []

    def on_dequeue(self, src, dst, payload):
        self.sent_log.append((src, dst, payload))

    def on_start(self, ctx: Context) -> None:
        for leaf in range(2, self.net.n):
            for i in range(self.packets_per_leaf):
                self.enqueue(ctx, leaf, 0, (leaf, i), ("p", leaf, i))

    def handle(self, ctx: Context, node: int, inbox: Inbox) -> None:
        for _sender, payload in inbox:
            if node == 0:
                self.enqueue(ctx, 0, 1, (payload[1], payload[2]), payload)
            else:
                self.delivered.append(payload)


def test_queue_respects_capacity_one():
    net = star_graph(6)
    program = Funnel(net, packets_per_leaf=3)
    stats = Engine(net).run(program, max_ticks=100)
    # 4 leaves x 3 packets, each crossing two edges.
    assert len(program.delivered) == 12
    assert stats.messages == 24
    # Serialization on the hub->1 edge: at least 12 ticks.
    assert stats.ticks >= 12


def test_priority_order_on_shared_edge():
    net = star_graph(6)
    program = Funnel(net, packets_per_leaf=2)
    Engine(net).run(program, max_ticks=100)
    hub_sends = [p for s, d, p in program.sent_log if (s, d) == (0, 1)]
    # The hub enqueues with priority (leaf, i); dequeues must respect it
    # even though arrivals interleave across ticks.
    keys = [(p[1], p[2]) for p in hub_sends]
    assert keys == sorted(keys)


def test_higher_capacity_drains_faster():
    net = star_graph(6)
    slow = Funnel(net, packets_per_leaf=3, capacity=1)
    s1 = Engine(net).run(slow, max_ticks=100)
    fast = Funnel(net, packets_per_leaf=3, capacity=4)
    s2 = Engine(net).run(fast, max_ticks=100, capacity=4, rounds_per_tick=4)
    assert s2.ticks < s1.ticks
    assert len(fast.delivered) == 12


def test_fifo_within_equal_priority():
    net = path_graph(3)

    class Stream(QueuedProgram):
        name = "stream"

        def __init__(self):
            super().__init__(capacity=1)
            self.got = []

        def on_start(self, ctx):
            for i in range(5):
                self.enqueue(ctx, 0, 1, (0,), ("x", i))

        def handle(self, ctx, node, inbox):
            for _s, payload in inbox:
                self.got.append(payload[1])

    program = Stream()
    Engine(net).run(program, max_ticks=20)
    assert program.got == [0, 1, 2, 3, 4]
