# repro-lint-module: repro.engine.demo
"""RPR008 negative: hooks bound once before the loop, fan-out pre-bound."""


class Kernel:
    def run(self, heap):
        strict = self._strict
        tracer = self._tracer
        while heap:
            entry = heap.pop()
            if strict:
                self._sanitize(entry)
            if tracer is not None:
                tracer.dispatch(entry)

    def drain(self, packets, now):
        rtt_fan = self._rtt_fan
        for packet in packets:
            if rtt_fan is not None:
                rtt_fan((now, packet))
