# repro-lint-module: repro.engine.demo
"""RPR008 positive: constant hooks probed per iteration of dispatch loops."""


class Kernel:
    def run(self, heap):
        while heap:
            entry = heap.pop()
            if self._strict:
                self._sanitize(entry)
            tracer = self._tracer
            if tracer is not None:
                tracer.dispatch(entry)

    def drain(self, packets, now):
        for packet in packets:
            if self._rtt_fan is not None:
                self._rtt_fan((now, packet))
