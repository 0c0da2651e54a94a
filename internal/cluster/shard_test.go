package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// undeclaredKey returns a key of the JSON object doc that names no field
// of typ — matched as encoding/json matches keys, case-insensitively —
// or "" when every key is declared.
func undeclaredKey(doc []byte, typ reflect.Type) string {
	var obj map[string]json.RawMessage
	_ = json.Unmarshal(doc, &obj) // not an object: no keys to check
next:
	for key := range obj {
		for i := 0; i < typ.NumField(); i++ {
			if name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); strings.EqualFold(key, name) {
				continue next
			}
		}
		return key
	}
	return ""
}

// FuzzShardBuildRequest: whatever bytes arrive on /v1/shard/build, the
// decoder returns a request whose spec is native and asked to be (an
// empty backend, or native), within the service limits, read from
// declared fields only and vetted to itself — or an error. It never
// panics.
func FuzzShardBuildRequest(f *testing.F) {
	for _, s := range []string{
		`{"map_version":1,"spec":{"algorithm":"PARTREE","procs":2,"bodies":256,"steps":1,"seed":7,"check":true}}`,
		`{"map_version":1,"spec":{"backend":"simulated","platform":"origin","build_only":true}}`,
		`{"map_version":1,"spec":{"bodies":2000000000}}`,
		`{"map_version":1,"spec":{"bodies":64,"leaf_cap":2147483648}}`,
		`{"map_version":1,"spec":{"trace":"/tmp/t.json"}}`,
		`{"map_version":1,"spec":{"model":"cube"}} trailing junk`,
		`{"map_version":"one"}`, `{"map_version":1,"spec":{}}{}`, `{`, ``, `null`, `[]`, `7`,
		`{"map_version":1,"spec":{"backend":"native","build_only":true,"bodeis":100000}}`,
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
		var asked struct {
			Spec struct {
				Backend runner.Backend `json:"backend"`
			} `json:"spec"`
		}
		_ = json.Unmarshal([]byte(doc), &asked) // the backend the decoder read
		if b := asked.Spec.Backend; b != "" && b != runner.Native {
			t.Fatalf("accepted %q, whose backend %q a shard does not run", doc, b)
		}
		if spec.Backend != runner.Native || spec.Bodies > runner.MaxServiceBodies ||
			spec.Procs > maxProcs || spec.Steps > runner.MaxServiceSteps || spec.LeafCap > runner.MaxServiceLeafCap {
			t.Fatalf("accepted a spec a shard must not run: %+v", spec)
		}
		var top map[string]json.RawMessage
		_ = json.Unmarshal([]byte(doc), &top) // not an object: no keys to check
		for key, val := range top {
			switch {
			case strings.EqualFold(key, "map_version"):
			case strings.EqualFold(key, "spec"):
				if k := undeclaredKey(val, reflect.TypeOf(spec)); k != "" {
					t.Fatalf("accepted %q, whose spec key %q runner.Spec does not declare", doc, k)
				}
			default:
				t.Fatalf("accepted %q, whose key %q the request does not declare", doc, key)
			}
		}
		if again, err := runner.VetServiceSpec(spec); err != nil || again != spec {
			t.Fatalf("accepted %+v, which vets to %+v (%v)", spec, again, err)
		}
	})
}
