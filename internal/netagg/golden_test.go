package netagg

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	bounded "repro"
	"repro/engine"
)

// TestGoldenAggCheckpoint pins the "AG" checkpoint payload byte for
// byte: two agents, three structures each, fixed watermarks, hashed
// against the digest recorded before the per-agent blob loop moved into
// wire.Blob — so every checkpoint the parent's bdaggd wrote still
// opens, and reopening this one yields both agents.
func TestGoldenAggCheckpoint(t *testing.T) {
	const golden = "94016a4fc95311d848e1f7a2110bd6a1e824261853f4e6d8baefa7849a509f59"
	site := func(seed int64) map[engine.Structures]bounded.Sketch {
		hh, err := bounded.NewHeavyHitters(testConfig)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := bounded.NewL1Estimator(testConfig)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := bounded.NewSupportSampler(testConfig)
		if err != nil {
			t.Fatal(err)
		}
		us := testStream(5000, seed)
		hh.UpdateBatch(us)
		l1.UpdateBatch(us)
		sp.UpdateBatch(us)
		return map[engine.Structures]bounded.Sketch{
			engine.HeavyHitters: hh, engine.L1Estimator: l1, engine.SupportSampler: sp,
		}
	}
	rows := []aggAgentRow{
		{id: "site-a", seq: 3, gen: 5, lastSyncNano: 1_700_000_000_000_000_000, snapshots: 3, sketches: site(1)},
		{id: "site-b", seq: 8, gen: 13, lastSyncNano: 1_700_000_000_500_000_000, snapshots: 7, sketches: site(2)},
	}
	payload, err := marshalAggState(testConfig, testStructures, rows)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Fatalf("%d-byte checkpoint hashes to %s, the parent's to %s", len(payload), got, golden)
	}
	back, err := unmarshalAggState(payload, testConfig, testStructures)
	if err != nil || len(back) != 2 || len(back[0].sketches) != 3 || len(back[1].sketches) != 3 {
		t.Fatalf("reopening the checkpoint: %d rows, %v", len(back), err)
	}
}
