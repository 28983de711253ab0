"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions of the package from the outside: it
replaces module and class attributes with thin wrappers, so no module under
`src/` carries tracing code.  A function is wrapped where its callers look it
up, not only where it is defined (`cli` imports `run_audit` and
`quantize_model` by name, `zkaudit.protocol` imports `zk_bin_update` and
`zk_bin_check`, `mirage` imports `backprop`).

Span i has a name, a start and end (perf_counter_ns), and the index of its
parent span (-1 for a root).  Work items (`wires`, `products`, `terms`,
`claims`, `items`, `elems`, `bytes.<frame>`, `frames`) count toward the
innermost open span.  Spans live in flat integer arrays, which the cyclic
garbage collector does not scan, and are written once, when the process ends.
"""

import functools
import json
import time
from array import array


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []  # distinct span names; name_id indexes it
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts = {}  # key -> array of (span index, n) pairs, flattened
        self.stack = []
        self.sessions = []  # itmac Session objects, for the preprocessing ratio

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, n: int) -> None:
        pairs = self.counts.get(key)
        if pairs is None:
            pairs = self.counts[key] = array("q")
        pairs.append(self.stack[-1])
        pairs.append(n)

    def wrap(self, name, fn, count=None, after=None):
        """Return `fn` wrapped in a span.  `name` is a string or a callable
        of the call's arguments; `count(tracer, args, kwargs)` records work
        items on the new span; `after(args, kwargs)` runs once it closes."""
        stack, clock = self.stack, time.perf_counter_ns
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        fixed = None if callable(name) else self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(fixed if fixed is not None else self._id(name(args, kwargs)))
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(i)
            if count is not None:
                count(self, args, kwargs)
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if after is not None:
                    after(args, kwargs)

        return wrapper

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "names": self.names,
                "name_id": self.name_id.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "parent": self.parent.tolist(),
                "counts": {k: v.tolist() for k, v in self.counts.items()}}

    def dump(self, path, extra=None) -> None:
        doc = self.to_json()
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _patch(tracer, owner, attr, name, **kw):
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))


# Frame types reported on their own; the rest are small control frames.
_FRAME_NAMES = {3: "dealer_auth", 4: "dealer_triple", 5: "input_delta",
                6: "open_masked", 7: "check_coins", 8: "check_mac"}
FRAME_METRICS = tuple(_FRAME_NAMES.values()) + ("control",)


def install(tracer: Tracer) -> None:
    """Wrap every traced public function of the package."""
    from abstain_audit import (abstain, calibration, cli, data, mirage, nets,
                               widgets)
    from abstain_audit.itmac import channel
    from abstain_audit.itmac.session import Dealer, Session
    from abstain_audit.zkaudit import circuit, fixedpoint, protocol

    # data, nets, mirage, widgets, calibration, abstain: looked up through
    # their modules by cli and by each other
    for mod, attrs in ((data, ("load_csv", "save_csv")),
                       (nets, ("train_ce", "fit_temperature")),
                       (mirage, ("finetune_mirage", "train_gaussian_nll",
                                 "finetune_regression_attack")),
                       (widgets, ("deepen", "inject_region_shift")),
                       (calibration, ("reliability",)),
                       (abstain, ("abstention_stats",))):
        prefix = mod.__name__.split(".", 1)[1]
        for attr in attrs:
            _patch(tracer, mod, attr, f"{prefix}.{attr}")
    for mod in (nets, mirage):  # mirage imports backprop by name
        _patch(tracer, mod, "backprop", "nets.backprop")

    # zkaudit: cli imports run_audit and quantize_model by name
    _patch(tracer, cli, "quantize_model", "zkaudit.fixedpoint.quantize_model")
    _patch(tracer, cli, "run_audit", "zkaudit.protocol.run_audit")
    _patch(tracer, fixedpoint, "fx_audit", "zkaudit.fixedpoint.fx_audit")
    for attr in ("zk_bin_update", "zk_bin_check"):
        _patch(tracer, protocol, attr, f"zkaudit.circuit.{attr}")
    for attr in ("linear_public_input", "linear_hidden", "rescale", "relu",
                 "argmax", "table_read", "confidence", "equals"):
        _patch(tracer, circuit.Circuit, attr, f"zkaudit.circuit.{attr}")

    # Circuit.layer: run_audit calls it once per model layer, in order, and
    # passes final=True on the last one
    layer_k = [0]

    def layer_done(args, kwargs):
        layer_k[0] = 0 if kwargs.get("final") else layer_k[0] + 1

    _patch(tracer, circuit.Circuit, "layer",
           lambda a, k: f"zkaudit.circuit.layer{layer_k[0]}", after=layer_done)

    # itmac.session
    Session.__init__ = tracer.wrap(
        "itmac.session.init", Session.__init__,
        after=lambda a, k: tracer.sessions.append(a[0]))
    _patch(tracer, Session, "lin_combine", "itmac.session.lin_combine",
           count=lambda t, a, k: t.add("terms", len(a[1])))
    _patch(tracer, Session, "multiply_vec", "itmac.session.multiply_vec",
           count=lambda t, a, k: t.add("products", len(a[1])))
    _patch(tracer, Session, "input_vec", "itmac.session.input_vec",
           count=lambda t, a, k: t.add(
               "wires", a[1] if isinstance(a[1], int) else len(a[1])))
    _patch(tracer, Session, "batch_check", "itmac.session.batch_check",
           count=lambda t, a, k: t.add("claims", len(a[0]._pending)))
    _patch(tracer, Session, "_refill", "itmac.session.refill")
    for attr in ("make_triples", "make_auth"):
        _patch(tracer, Dealer, attr, f"itmac.session.dealer.{attr}",
               count=lambda t, a, k: t.add("items", a[1]))

    # itmac.channel: session.py reaches pack/unpack through the module
    def count_send(t, a, k):
        payload = a[2] if len(a) > 2 else k.get("payload", b"")
        t.add(f"bytes.{_FRAME_NAMES.get(a[1], 'control')}",
              channel._HEADER.size + len(payload))
        t.add("frames", 1)

    _patch(tracer, channel._RecordingChannel, "send", "itmac.channel.send",
           count=count_send)
    _patch(tracer, channel._RecordingChannel, "recv", "itmac.channel.recv")
    _patch(tracer, channel, "pack_fields", "itmac.channel.pack_fields",
           count=lambda t, a, k: t.add("elems", len(a[0])))
    _patch(tracer, channel, "unpack_fields", "itmac.channel.unpack_fields",
           count=lambda t, a, k: t.add("elems", len(a[0]) // 8))
