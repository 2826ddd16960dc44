package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"ndnprivacy/internal/attack"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// observeGolden pins the three observability outputs — Prometheus text,
// event NDJSON and span NDJSON — of one small run per pipeline: the
// Figure 3(a), 3(c) and 3(d) forwarder sweeps (three topologies), the
// E15 tiered run and a Figure 5(a) trace replay. Each hash covers the
// bytes ndnsim's -metrics, -trace and -spans flags would write for that
// run, so any change to what a stage records, or in which order, shows
// up here. The Figure 5(a) hashes
// equal those of `ndnsim -fig 5a -requests 20000 -seed 1`.
var observeGolden = []struct {
	name                string
	run                 func(reg *telemetry.Registry, sink telemetry.Sink, spans *span.Tracer) error
	prom, events, spans string
}{
	{
		name: "figure3a",
		run: func(reg *telemetry.Registry, sink telemetry.Sink, spans *span.Tracer) error {
			_, err := Figure3a(attack.ScenarioConfig{Seed: 1, Objects: 40, Runs: 2, Parallel: 2, Metrics: reg, Trace: sink, Spans: spans})
			return err
		},
		prom:   "cf9ab937e52f1c5cf3a191614af326df1a7c5cb77cb2adbc4fc4e096020f74c1",
		events: "d6d0d5fb5e78df4ae0684c65a9c0d4af0146b436e442f13deac5a60155803906",
		spans:  "b26fa8a8e9b7d974461c9cb710211884359ebe20f4eb1b5d8fe29e55c9b85907",
	},
	{
		name: "figure3c",
		run: func(reg *telemetry.Registry, sink telemetry.Sink, spans *span.Tracer) error {
			_, err := Figure3c(attack.ScenarioConfig{Seed: 1, Objects: 40, Runs: 2, Parallel: 2, Metrics: reg, Trace: sink, Spans: spans})
			return err
		},
		prom:   "a4c769b9f6a8e07a994d694aa29b0877199ffaf2e599f776e90bfd23c9b64f8e",
		events: "d38a4fe4656f26483c25cac56a523c50a71f11cacb8e77793d469bd851c7834f",
		spans:  "47b6f9a56a1eaae1e4857cdc8df5fe5ae630fc42328979c2e289027614965524",
	},
	{
		name: "figure3d",
		run: func(reg *telemetry.Registry, sink telemetry.Sink, spans *span.Tracer) error {
			_, err := Figure3d(attack.ScenarioConfig{Seed: 1, Objects: 40, Runs: 2, Parallel: 2, Metrics: reg, Trace: sink, Spans: spans})
			return err
		},
		prom:   "781c25ce7111ba7b30dfd275a70a989b7d0c5053ea4fc23d70cbc9665048b5b4",
		events: "b454cf2fae935caee6d1ae71820250522337391b7b425fa72384d836a7a86db0",
		spans:  "b2707821ab1d6c38091937e4ea558ce56dcb8a76cd2ad2a0db72235defb4ceb4",
	},
	{
		name: "tiered",
		run: func(reg *telemetry.Registry, sink telemetry.Sink, spans *span.Tracer) error {
			_, err := RunTieredTiming(attack.ScenarioConfig{Seed: 1, Objects: 40, Runs: 2, Parallel: 2, Metrics: reg, Trace: sink, Spans: spans})
			return err
		},
		prom:   "01c196f2e38493042fe31fc57aa78e0972ea7f976c40d28aa6651f9e0e553892",
		events: "bfab3dd055122f64003e5193299e24d10447e21b2d266ffbffe93e9e3f095759",
		spans:  "f756c530fb868dc0346af9047921b17e0d47c58dfb5d88bfaea5e2beafe56c4f",
	},
	{
		name: "figure5a",
		run: func(reg *telemetry.Registry, sink telemetry.Sink, spans *span.Tracer) error {
			_, err := Figure5a(Figure5Config{Seed: 1, Requests: 20000, Parallel: 2, Metrics: reg, Trace: sink, Spans: spans})
			return err
		},
		prom:   "b349d9705ea7457c44ca2d2e3a175bd48a4d070a256a311600a11299cff12d91",
		events: "6e5f52bd48f5ab5dde0fee5b939cbe2c30ce8f09d45296485aba8bd7e1b4221c",
		spans:  "80bbda84a433d79a0d25a2029717bd4cb39ef1d34d36159c0f4ab8384d9c703d",
	},
}

func TestObservabilityGolden(t *testing.T) {
	for _, tc := range observeGolden {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			events := sha256.New()
			sink := telemetry.NewTraceWriter(events)
			tracer := span.NewTracer(1)
			if err := tc.run(reg, sink, tracer); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			prom := sha256.New()
			if err := reg.Snapshot().WritePrometheus(prom); err != nil {
				t.Fatal(err)
			}
			spans := sha256.New()
			if err := span.WriteNDJSON(spans, tracer.Records()); err != nil {
				t.Fatal(err)
			}
			for _, out := range []struct {
				what string
				h    hash.Hash
				want string
			}{
				{"Prometheus text", prom, tc.prom},
				{"event NDJSON", events, tc.events},
				{"span NDJSON", spans, tc.spans},
			} {
				if got := hex.EncodeToString(out.h.Sum(nil)); got != out.want {
					t.Errorf("%s sha256 = %s, want %s", out.what, got, out.want)
				}
			}
		})
	}
}
