package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"subgraph"
)

// FuzzJobSpec feeds arbitrary job bodies through CheckSpec and the
// worker's prepare() against one stored graph. Both graph forms are
// pointed at that graph (the digest, or its edge list inline), so only
// the spec's own fields decide. It asserts that CheckSpec accepts exactly
// when prepare does, with the same status and message on rejection; that
// an accepted spec keys like prepare; and that the canonical options
// form is a fixed point of decoding.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"G","pattern":"triangle"}`,
		`{"graph":"G","pattern":"clique:4","priority":"high","options":{"seed":3,"reps":2,"parallel":true,"deadline_ms":50}}`,
		`{"graph":"G","pattern":"path:3","options":{"faults":{"seed":1,"drop_rate":0.25,"crashes":[{"vertex":1,"round":2}]}}}`,
		`{"graph":"G","pattern":"cycle:4","options":{"resilient":true,"faults":{}}}`,
		`{"graph":"G","pattern":"clique:5","mode":"count","options":{"seed":9}}`,
		`{"graph":"G","pattern":"path:5","mode":"count"}`,
		`{"graph":"G","pattern":"triangle","mode":"count","trace":true}`,
		`{"graph":"G","pattern":"triangle","mode":"guess"}`,
		// A deadline past time.Duration's range once wrapped negative.
		`{"graph":"G","pattern":"triangle","options":{"deadline_ms":9223372036855}}`,
		// The three specs a router once answered differently from a worker:
		// an inline graph with a bad pattern or priority, count mode with
		// fault options on a cached digest, and both graph forms at once.
		`{"graph_inline":"I","pattern":"nope"}`,
		`{"graph_inline":"I","pattern":"triangle","priority":"urgent"}`,
		`{"graph":"G","pattern":"triangle","mode":"count","options":{"resilient":true}}`,
		`{"graph":"G","pattern":"triangle","mode":"count","options":{"faults":{"drop_rate":0.1}}}`,
		`{"graph":"G","graph_inline":"I","pattern":"triangle"}`,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{})
	const text = "n 6\n0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n"
	g, aerr := ParseEdgeList(text, s.cfg.GraphLimits)
	if aerr != nil {
		f.Fatal(aerr.Msg)
	}
	digest, _ := s.store.Put(g)

	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		if spec.Graph != "" {
			spec.Graph = digest
		}
		if spec.GraphInline != "" {
			spec.GraphInline = text
		}
		chk, cerr := CheckSpec(spec)
		j, perr := s.prepare(spec)
		if j != nil {
			s.releaseJobPin(j)
		}
		if (cerr == nil) != (perr == nil) {
			t.Fatalf("CheckSpec %+v but prepare %+v for %s", cerr, perr, body)
		}
		if cerr != nil {
			if *cerr != *perr {
				t.Fatalf("rejections differ for %s:\n  CheckSpec: %+v\n  prepare:   %+v", body, cerr, perr)
			}
			return
		}
		if key := chk.Key(digest); key != j.key {
			t.Fatalf("key mismatch for %s:\n  prepare:   %s\n  CheckSpec: %s", body, j.key, key)
		}

		canon := subgraph.OptionsSpecOf(chk.opts).Canonical()
		var again subgraph.OptionsSpec
		if err := json.Unmarshal([]byte(canon), &again); err != nil {
			t.Fatalf("canonical options %s do not decode: %v", canon, err)
		}
		opts, err := again.Options()
		if err != nil {
			t.Fatalf("canonical options %s are refused: %v", canon, err)
		}
		if c := subgraph.OptionsSpecOf(opts).Canonical(); c != canon {
			t.Fatalf("canonical form is not a fixed point:\n  %s\n  %s", canon, c)
		}
	})
}
