package cluster

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"partree/internal/runner"
)

// TestDecodeShardBuildRejectsTrailingData: a shard build request must be
// the whole body — a second document or junk after a valid request is
// refused rather than silently dropped.
func TestDecodeShardBuildRejectsTrailingData(t *testing.T) {
	doc, err := json.Marshal(ShardBuildRequest{MapVersion: 1, Spec: buildSpec(256)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{`{"map_version":2}`, "trailing junk", "]"} {
		if _, err := decodeShardBuild(bytes.NewReader(append(append([]byte(nil), doc...), tail...))); err == nil {
			t.Errorf("decodeShardBuild accepted a request followed by %q", tail)
		}
	}
	br, err := decodeShardBuild(bytes.NewReader(append(append([]byte(nil), doc...), " \n"...)))
	if err != nil {
		t.Fatalf("decodeShardBuild refused trailing whitespace: %v", err)
	}
	if br.MapVersion != 1 || br.Spec.Backend != runner.Native {
		t.Errorf("decoded %+v, want map version 1 and a native spec", br)
	}
}

// FuzzShardBuildRequest: whatever bytes arrive on /v1/shard/build, the
// decoder returns a request whose spec is native, within the service
// limits and vetted to itself — or an error. It never panics.
func FuzzShardBuildRequest(f *testing.F) {
	for _, s := range []string{
		`{"map_version":1,"spec":{"algorithm":"PARTREE","procs":2,"bodies":256,"steps":1,"seed":7,"check":true}}`,
		`{"map_version":1,"spec":{"backend":"simulated","platform":"origin","build_only":true}}`,
		`{"map_version":1,"spec":{"bodies":2000000000}}`,
		`{"map_version":1,"spec":{"bodies":64,"leaf_cap":2147483648}}`,
		`{"map_version":1,"spec":{"trace":"/tmp/t.json"}}`,
		`{"map_version":1,"spec":{"model":"cube"}} trailing junk`,
		`{"map_version":"one"}`, `{"map_version":1,"spec":{}}{}`, `{`, ``, `null`, `[]`, `7`,
	} {
		f.Add(s)
	}
	maxProcs := runner.MaxServiceProcsPerCPU * runtime.GOMAXPROCS(0)
	f.Fuzz(func(t *testing.T, doc string) {
		br, err := decodeShardBuild(strings.NewReader(doc))
		if err != nil {
			return
		}
		spec := br.Spec
		if spec.Backend != runner.Native || spec.Trace != "" || spec.Bodies > runner.MaxServiceBodies ||
			spec.Procs > maxProcs || spec.Steps > runner.MaxServiceSteps || spec.LeafCap > runner.MaxServiceLeafCap {
			t.Fatalf("accepted a spec a shard must not run: %+v", spec)
		}
		if again, err := runner.VetServiceSpec(spec, true); err != nil || again != spec {
			t.Fatalf("accepted %+v, which vets to %+v (%v)", spec, again, err)
		}
	})
}
