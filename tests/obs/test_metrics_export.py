"""Exporter tests: Prometheus text exposition 0.0.4, a snapshot's one format."""

from repro.obs.registry import MetricsRegistry, export_prometheus, prometheus_text


def sample_registry():
    reg = MetricsRegistry()
    reg.counter("repro_queue_drops_total", {"port": "sw1->sw2"},
                help="packets dropped").inc(41)
    reg.counter("repro_queue_drops_total", {"port": "sw2->sw1"}).inc(3)
    reg.gauge("repro_link_utilization_ratio", {"port": "sw1->sw2"}).set(0.875)
    hist = reg.histogram("repro_tcp_rtt_seconds", {"conn": "1"},
                         help="rtt", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(2.0)
    rate = reg.rate("repro_link_departures", {"port": "sw1->sw2"},
                    help="departures", window=1.0)
    rate.mark(0.0, 2)
    rate.mark(0.5, 1)
    return reg


class TestPrometheusText:
    def test_counter_samples_grouped_under_one_header(self):
        text = prometheus_text(sample_registry())
        lines = text.splitlines()
        assert "# TYPE repro_queue_drops_total counter" in lines
        assert lines.count("# TYPE repro_queue_drops_total counter") == 1
        assert 'repro_queue_drops_total{port="sw1->sw2"} 41' in lines
        assert 'repro_queue_drops_total{port="sw2->sw1"} 3' in lines
        assert "# HELP repro_queue_drops_total packets dropped" in lines

    def test_histogram_cumulative_buckets_and_inf(self):
        lines = prometheus_text(sample_registry()).splitlines()
        assert 'repro_tcp_rtt_seconds_bucket{conn="1",le="0.1"} 1' in lines
        assert 'repro_tcp_rtt_seconds_bucket{conn="1",le="1"} 2' in lines
        assert 'repro_tcp_rtt_seconds_bucket{conn="1",le="+Inf"} 3' in lines
        assert 'repro_tcp_rtt_seconds_count{conn="1"} 3' in lines

    def test_rate_flattens_into_three_families(self):
        lines = prometheus_text(sample_registry()).splitlines()
        assert "# TYPE repro_link_departures_total counter" in lines
        assert "# TYPE repro_link_departures_peak_per_second gauge" in lines
        assert "# TYPE repro_link_departures_last_per_second gauge" in lines
        assert 'repro_link_departures_total{port="sw1->sw2"} 3' in lines

    def test_non_integral_values_keep_precision(self):
        text = prometheus_text(sample_registry())
        assert 'repro_link_utilization_ratio{port="sw1->sw2"} 0.875' in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", {"k": 'a"b\\c'}).inc()
        text = prometheus_text(reg)
        assert 'repro_x_total{k="a\\"b\\\\c"} 1' in text

    def test_snapshot_and_registry_render_identically(self):
        reg = sample_registry()
        assert prometheus_text(reg) == prometheus_text(reg.snapshot())

    def test_export_writes_file(self, tmp_path):
        target = export_prometheus(sample_registry(), tmp_path / "m.prom")
        assert target.read_text().endswith("\n")

