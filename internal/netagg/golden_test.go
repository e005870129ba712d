package netagg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	bounded "repro"
	"repro/engine"
)

// TestGoldenAggCheckpoint pins the "AG" checkpoint payload byte for
// byte: two agents, three structures each, fixed watermarks. The digest
// was last re-pinned when every count column began to travel at the
// width most of its entries need, the few wide ones patched in (wire
// format v4); beside it sits the digest of what every reopened sketch
// answers, recorded by the same probe in the tree before the v2 re-pin
// and unmoved by v3's or v4's. Reopening yields both agents.
func TestGoldenAggCheckpoint(t *testing.T) {
	const (
		golden  = "d8803cc45d72ef33379e7d53eada09f637d671d461d6fdaff2c54ac95147d661"
		answers = "d6638772391d6e14f04ee3d68adeca3678c27c10b614fac6e3ca44a3be3216ee"
	)
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
		t.Fatalf("%d-byte checkpoint hashes to %s, recorded %s", len(payload), got, golden)
	}
	back, err := unmarshalAggState(payload, testConfig, testStructures)
	if err != nil || len(back) != 2 || len(back[0].sketches) != 3 || len(back[1].sketches) != 3 {
		t.Fatalf("reopening the checkpoint: %d rows, %v", len(back), err)
	}
	var all string
	for _, row := range back {
		for _, bit := range testStructures.Bits() {
			blob, err := row.sketches[bit].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			all += blobAnswers(t, blob)
		}
	}
	if got := digest([]byte(all)); got != answers {
		t.Fatalf("the reopened sketches' answers hash to %s, the parent's to %s", got, answers)
	}
}

// blobAnswers restores a heavy-hitters, L1 or support blob and lists
// what it answers: none of these reads a draw the restore seeded.
func blobAnswers(t testing.TB, blob []byte) string {
	t.Helper()
	sk, err := bounded.UnmarshalSketch(blob)
	if err != nil {
		t.Fatal(err)
	}
	switch s := sk.(type) {
	case *bounded.HeavyHitters:
		keys := make([]uint64, 4096)
		for i := range keys {
			keys[i] = uint64(i) * 16
		}
		return fmt.Sprint(s.HeavyHitters(), s.EstimateBatch(keys))
	case *bounded.L1Estimator:
		return fmt.Sprint(s.Estimate())
	case *bounded.SupportSampler:
		return fmt.Sprint(s.Recover())
	}
	t.Fatalf("no answers for a %T", sk)
	return ""
}
