"""Exporter tests: Prometheus text exposition 0.0.4, a snapshot's one format."""

from repro.obs.export import export_prometheus, prometheus_text
from repro.obs.harvest import counter, gauge, histogram, rate


def sample_snapshot():
    return {"metrics": [
        rate("repro_link_departures", {"port": "sw1->sw2"}, "departures",
             1.0, [0.0, 0.0, 0.5]),
        gauge("repro_link_utilization_ratio", {"port": "sw1->sw2"}, "",
              0.875),
        counter("repro_queue_drops_total", {"port": "sw1->sw2"},
                "packets dropped", 41),
        counter("repro_queue_drops_total", {"port": "sw2->sw1"},
                "packets dropped", 3),
        histogram("repro_tcp_rtt_seconds", {"conn": "1"}, "rtt", (0.1, 1.0),
                  [(0.05, 1.0), (0.5, 1.0), (2.0, 1.0)]),
    ]}


class TestPrometheusText:
    def test_counter_samples_grouped_under_one_header(self):
        text = prometheus_text(sample_snapshot())
        lines = text.splitlines()
        assert "# TYPE repro_queue_drops_total counter" in lines
        assert lines.count("# TYPE repro_queue_drops_total counter") == 1
        assert 'repro_queue_drops_total{port="sw1->sw2"} 41' in lines
        assert 'repro_queue_drops_total{port="sw2->sw1"} 3' in lines
        assert "# HELP repro_queue_drops_total packets dropped" in lines

    def test_histogram_cumulative_buckets_and_inf(self):
        lines = prometheus_text(sample_snapshot()).splitlines()
        assert 'repro_tcp_rtt_seconds_bucket{conn="1",le="0.1"} 1' in lines
        assert 'repro_tcp_rtt_seconds_bucket{conn="1",le="1"} 2' in lines
        assert 'repro_tcp_rtt_seconds_bucket{conn="1",le="+Inf"} 3' in lines
        assert 'repro_tcp_rtt_seconds_count{conn="1"} 3' in lines

    def test_rate_flattens_into_three_families(self):
        lines = prometheus_text(sample_snapshot()).splitlines()
        assert "# TYPE repro_link_departures_total counter" in lines
        assert "# TYPE repro_link_departures_peak_per_second gauge" in lines
        assert "# TYPE repro_link_departures_last_per_second gauge" in lines
        assert 'repro_link_departures_total{port="sw1->sw2"} 3' in lines

    def test_non_integral_values_keep_precision(self):
        text = prometheus_text(sample_snapshot())
        assert 'repro_link_utilization_ratio{port="sw1->sw2"} 0.875' in text

    def test_label_escaping(self):
        snapshot = {"metrics": [counter("repro_x_total", {"k": 'a"b\\c'}, "", 1)]}
        assert 'repro_x_total{k="a\\"b\\\\c"} 1' in prometheus_text(snapshot)

    def test_export_writes_file(self, tmp_path):
        target = export_prometheus(sample_snapshot(), tmp_path / "m.prom")
        assert target.read_text().endswith("\n")
