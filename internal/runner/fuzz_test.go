package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// serviceSpecSeeds are request bodies the service decoders have met: the
// spec of every record in the CLI's -json goldens, and the documents the
// daemon's and router's 400-path tests send — over each service limit,
// an undeclared field, an unknown name, a type error, not JSON at all.
func serviceSpecSeeds(f *testing.F) []string {
	f.Helper()
	seeds := []string{
		`{"backend":"native","algorithm":"LOCAL","build_only":true,"bodies":256}`,
		`{"backend":"native","algorithm":"LOCAL","build_only":true,"bodies":2000000000}`,
		`{"backend":"native","algorithm":"local","build_only":true,"bodies":256,"procs":4097}`,
		`{"backend":"native","algorithm":"LOCAL","build_only":true,"bodies":256,"steps":1001}`,
		`{"backend":"native","build_only":true,"bodies":64,"leaf_cap":2147483648}`,
		`{"backend":"simulated","platform":"origin","algorithm":"SPACE","procs":2,"bodies":512,"steps":1}`,
		`{"backend":"simulated","platform":"origin","build_only":true}`,
		`{"algorithm":"UPDATE","sequential":true,"procs":8,"timeout_ns":30000000}`,
		`{"backend":"native","trace":"/tmp/t.json"}`,
		`{"backend":"native","build_only":true,"bodeis":100000}`,
		`{"backend":"quantum"}`, `{"algorithm":"SPCAE"}`, `{"model":"cube"}`, `{"platform":"cray"}`,
		`{"bodies":"many"}`, `{"theta":1e999}`, `{`, ``, `null`, `[]`, `7`,
	}
	goldens, err := filepath.Glob("../../cmd/partree/testdata/*.json")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no CLI goldens to seed from: %v", err)
	}
	for _, path := range goldens {
		page, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(page), []byte("\n")) {
			var rec struct{ Spec json.RawMessage }
			if err := json.Unmarshal(line, &rec); err != nil || rec.Spec == nil {
				f.Fatalf("%s: a record without a spec: %v", path, err)
			}
			seeds = append(seeds, string(rec.Spec))
		}
	}
	return seeds
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

// docBackend is the backend the spec decoder reads from doc: the last
// "backend" key, matched case-insensitively; "" when doc names none.
func docBackend(doc []byte) Backend {
	var probe struct {
		Backend Backend `json:"backend"`
	}
	_ = json.Unmarshal(doc, &probe)
	return probe.Backend
}

// vetted fails the test unless spec, decoded from in, is something a
// service may run: a native spec the document asked for (an empty
// backend, or native), within every service limit, read from declared
// fields only, and — being normalized — decoding from its own encoding
// to itself.
func vetted(t *testing.T, in string, spec Spec) {
	t.Helper()
	maxProcs := MaxServiceProcsPerCPU * runtime.GOMAXPROCS(0)
	if spec.Bodies > MaxServiceBodies || spec.Procs > maxProcs || spec.Steps > MaxServiceSteps || spec.LeafCap > MaxServiceLeafCap {
		t.Fatalf("accepted a spec outside the service limits: %+v", spec)
	}
	if key := undeclaredKey([]byte(in), reflect.TypeOf(spec)); key != "" {
		t.Fatalf("accepted %q, whose key %q the spec does not declare", in, key)
	}
	if b := docBackend([]byte(in)); spec.Backend != Native || b != "" && b != Native {
		t.Fatalf("accepted %q, whose backend %q a service does not run, as a %q spec", in, b, spec.Backend)
	}
	doc, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("an accepted spec does not encode: %v", err)
	}
	again, err := DecodeServiceSpec(bytes.NewReader(doc))
	if err != nil || again != spec {
		t.Fatalf("accepted %+v\nre-encoded as %s\nre-decodes to %+v (%v)", spec, doc, again, err)
	}
}

// FuzzDecodeServiceSpec: whatever bytes arrive on /v1/build, the decoder
// returns a vetted native spec or an error — it never panics — and it
// accepts exactly one document: trailing whitespace is let through, a
// second document (or anything else after the first) is refused.
func FuzzDecodeServiceSpec(f *testing.F) {
	seeds := serviceSpecSeeds(f)
	for _, s := range seeds {
		f.Add(s)
		// The same document naming the simulated backend first: refused,
		// unless a later key names the backend again.
		f.Add(strings.Replace(s, "{", `{"backend":"simulated",`, 1))
	}
	// The retired sweep's body, two specs back to back, and one spec
	// followed by whitespace or by stray bytes.
	f.Add("[" + seeds[0] + "]")
	f.Add(seeds[0] + seeds[0])
	f.Add(seeds[0] + "\n" + seeds[5])
	f.Add(seeds[0] + " \r\n\t")
	f.Add(seeds[0] + " x")
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := DecodeServiceSpec(strings.NewReader(doc))
		if err != nil {
			return
		}
		vetted(t, doc, spec)
		if again, err := DecodeServiceSpec(strings.NewReader(doc + " \n")); err != nil || again != spec {
			t.Fatalf("%q with trailing whitespace decodes to %+v (%v), without it to %+v", doc, again, err, spec)
		}
		if _, err := DecodeServiceSpec(strings.NewReader(doc + doc)); err == nil {
			t.Fatalf("accepted %q twice over as one spec", doc)
		}
	})
}
