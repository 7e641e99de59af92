package campaign

import (
	"testing"

	"chaser/internal/apps"
	"chaser/internal/tainthub"
	"chaser/internal/tainthub/codec"
)

// TestCampaignWireDifferential runs the same campaign twice against one
// TaintHub server — once over the legacy JSON wire, once over the compact
// binary wire — and requires the two campaigns to agree run by run
// (Summary.Outcomes, field for field) and in every rendered report. The codec
// must be invisible to every result the tool reports: outcome classification,
// propagation counts, per-op breakdowns.
func TestCampaignWireDifferential(t *testing.T) {
	srv, err := tainthub.NewServer(tainthub.NewLocal(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: app.TargetRank,
		Runs: 40, Bits: 1, Seed: 4242, Trace: true, Parallel: 4,
		KeepRunOutcomes: true,
	}

	sums := make(map[codec.Format]*Summary)
	for i, wire := range []codec.Format{codec.FormatJSON, codec.FormatBinary} {
		client, err := tainthub.DialConfig(srv.Addr(), tainthub.ClientConfig{Wire: wire})
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Hub = client
		// Disjoint namespace ranges so the two arms cannot see each other's
		// taint on the shared server.
		cfg.HubNamespaceBase = i * (base.Runs + 1)
		sum, err := Run(cfg)
		if err != nil {
			client.Close()
			t.Fatalf("%s-wire campaign: %v", wire, err)
		}
		if client.Stats().Polls == 0 {
			t.Errorf("%s-wire campaign never used the hub", wire)
		}
		client.Close()
		sums[wire] = sum
	}
	sameCampaign(t, sums[codec.FormatJSON], sums[codec.FormatBinary])
}
