package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	asc "repro"
	"repro/client"
	"repro/internal/migrate"
	"repro/internal/progs"
	"repro/internal/wire"
)

// hotTypes are the wire's hot decode targets: every request body the
// server and gateway decode, and every response the client decodes that
// can carry an image or an envelope.
var hotTypes = []func() any{
	func() any { return new(client.RunRequest) },
	func() any { return new(client.SessionRequest) },
	func() any { return new(client.BatchRequest) },
	func() any { return new(client.ResumeRequest) },
	func() any { return new(client.SessionResult) },
	func() any { return new(client.SessionStatus) },
	func() any { return new(client.SessionDraining) },
	func() any { return new(client.RunResult) },
}

// wideConfig is wide-session's machine at pes PEs.
func wideConfig(pes int) client.MachineConfig {
	return client.MachineConfig{PEs: pes, Threads: 4, Width: 16, LocalMemWords: 64}
}

// sessionRequest is a wide-session-shaped session: a string-search kernel
// with one 8-word row per PE.
func sessionRequest(pes int) client.SessionRequest {
	ins := progs.StringSearch(pes, 8, 1)
	return client.SessionRequest{
		RunRequest: client.RunRequest{
			Asm: ins.Source, Config: wideConfig(pes),
			LocalMem: ins.LocalMem, ScalarMem: ins.ScalarMem,
		},
		Resumable:             true,
		CheckpointEveryCycles: 4096,
	}
}

// envelope seals a session's real snapshot, taken after the kernel ran.
func envelope(tb testing.TB, pes int) *client.SnapshotEnvelope {
	req := sessionRequest(pes).RunRequest
	prog, err := asc.Assemble(req.Asm)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := asc.New(req.Config.ASC(), prog)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.LoadLocalMem(req.LocalMem); err != nil {
		tb.Fatal(err)
	}
	if err := p.LoadScalarMem(req.ScalarMem); err != nil {
		tb.Fatal(err)
	}
	st, err := p.Run(0)
	if err != nil {
		tb.Fatal(err)
	}
	return migrate.Pack("s-0123456789abcdef", req, strings.Repeat("ab", 32), p.Snapshot(),
		st.Cycles, 1<<20, 2, 4096, st)
}

// batchRequest is jobs same-program jobs at pes PEs.
func batchRequest(jobs, pes int) client.BatchRequest {
	var b client.BatchRequest
	for i := 0; i < jobs; i++ {
		ins := progs.ResponderSum(pes, int64(i))
		b.Jobs = append(b.Jobs, client.RunRequest{
			Asm: ins.Source, Config: client.MachineConfig{PEs: pes, Width: 16},
			LocalMem: ins.LocalMem, ScalarMem: ins.ScalarMem, DumpScalar: 4,
		})
	}
	b.TimeoutMs = 5000
	return b
}

func marshal(tb testing.TB, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// canonical are encoding/json's own encodings of wire values: Decode must
// accept every one, or the fast path never engages on real traffic.
func canonical(tb testing.TB) [][]byte {
	env := envelope(tb, 16)
	res := client.RunResult{
		Cycles: 1234, Instructions: 999, IPC: 0.8095623987034035, ScalarOps: 3,
		ScalarMem: []int64{-1, 0, 1 << 40}, LocalMem: [][]int64{{1, 2}, {}, {-3}},
		Asm: "a <b> & \"c\"\n\tö", PoolHit: true, BlockCacheHit: true,
		Trace: &client.Trace{Diagram: "IF ID\n", Stats: "stalls: 0"},
	}
	return [][]byte{
		marshal(tb, sessionRequest(16)),
		marshal(tb, client.ResumeRequest{Envelope: env}),
		marshal(tb, client.ResumeRequest{}),
		marshal(tb, batchRequest(4, 16)),
		marshal(tb, client.BatchRequest{}),
		marshal(tb, res),
		marshal(tb, client.SessionResult{SessionID: env.SessionID, State: "suspended", Reason: "requested", Envelope: env, Checkpoints: 2}),
		marshal(tb, client.SessionResult{SessionID: "s", State: "completed", Result: &res, Resumed: true, StateDigest: "00ff"}),
		marshal(tb, client.SessionStatus{SessionID: "s", State: "completed", Envelope: env, Result: &client.SessionResult{Result: &res}}),
		marshal(tb, client.SessionDraining{Error: "draining: session suspended", Envelope: env}),
		marshal(tb, client.SessionDraining{Error: "queue full"}),
		marshal(tb, client.RunRequest{ASCL: "parallel v = pread(0);\nwrite(0, sumval(v));", LocalMem: [][]int64{{}}, ScalarMem: []int64{}}),
	}
}

// differ checks one input against one hot type: either both decoders
// accept it with deeply equal values, or Decode declines with v zero.
func differ(t *testing.T, data []byte, newV func() any) (accepted bool) {
	t.Helper()
	w := newV()
	if !wire.Decode(data, w) {
		if !reflect.ValueOf(w).Elem().IsZero() {
			t.Fatalf("%T: declined %q but left a non-zero value %+v", w, data, w)
		}
		return false
	}
	j := newV()
	if err := json.Unmarshal(data, j); err != nil {
		t.Fatalf("%T: wire accepted %q, encoding/json refused it: %v", w, data, err)
	}
	if !reflect.DeepEqual(w, j) {
		t.Fatalf("%T: decoders differ on %q:\nwire %+v\njson %+v", w, data, w, j)
	}
	return true
}

func TestDecodeAcceptsCanonical(t *testing.T) {
	for _, data := range canonical(t) {
		accepted := false
		for _, nv := range hotTypes {
			accepted = differ(t, data, nv) || accepted
		}
		if !accepted {
			t.Errorf("no hot type accepts encoding/json's own output %.200q", data)
		}
	}
	// Each body is accepted by the type that encoded it.
	for _, v := range []any{sessionRequest(16), batchRequest(4, 16), client.ResumeRequest{Envelope: envelope(t, 16)}} {
		p := reflect.New(reflect.TypeOf(v))
		if !wire.Decode(marshal(t, v), p.Interface()) {
			t.Errorf("%T: declined its own encoding", v)
		} else if !reflect.DeepEqual(p.Elem().Interface(), v) {
			t.Errorf("%T: round trip changed the value", v)
		}
	}
}

// TestDecodeEdges pins the inputs encoding/json reads in a way that is
// easy to get wrong: nulls, empty containers, whitespace, and unknown keys.
func TestDecodeEdges(t *testing.T) {
	for _, in := range []string{
		`{"localMem":[[],null,[1,null,-2]],"scalarMem":[]}`,
		`{"localMem":[],"scalarMem":null,"asm":null,"config":null}`,
		" {\n\t\"asm\" : \"halt\" , \"config\" : { \"pes\" : 4 } } \r\n",
		`{"unknown":{"a":[1,{"b":"\ud83d\ude00\u0000"}],"c":"` + "\xff" + `"},"asm":"halt","x":-1.5e-3}`,
		`{"maxCycles":-0,"timeoutMs":9223372036854775807,"dumpScalar":-9223372036854775808}`,
		`{"envelope":null}`,
		`{"envelope":{"snapshot":""}}`,
		`{"envelope":{"snapshot":"AA=="}}`,
		`{"envelope":{"snapshot":"AAEC","stats":{"idleByCause":{},"stallByCause":{"raw":3,"":0,"ö":1}}}}`,
		`{"jobs":[{},null,{"asm":"\u003chalt\u003e\n"}],"timeoutMs":1}`,
		`{"ipc":1e-7,"cycles":5,"result":{"ipc":12345678901234567890}}`,
		`{"result":{"trace":{"diagram":"\/\b\f\r\t\"\\"}}}`,
		`null`,
		`{}`,
	} {
		accepted := false
		for _, nv := range hotTypes {
			accepted = differ(t, []byte(in), nv) || accepted
		}
		if !accepted {
			t.Errorf("no hot type accepts %q", in)
		}
	}
}

// TestDecodeDeclines lists non-canonical bodies: Decode must leave each
// to encoding/json, whatever encoding/json then makes of it.
func TestDecodeDeclines(t *testing.T) {
	deep := `{"x":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `,"asm":"halt"}`
	for _, in := range []string{
		``,
		`   `,
		`{"ASM":"halt"}`,
		`{"Asm":"halt"}`,
		`{"asm":"a","asm":"b"}`,
		`{"a\u0073m":"halt"}`,
		`{"asm":"\ud83d\ude00"}`,
		"{\"asm\":\"\xff\"}",
		"{\"asm\":\"a\tb\"}",
		`{"asm":"halt"} {}`,
		`{"asm":"halt"}x`,
		`{"asm":"halt",}`,
		`{"maxCycles":1.0}`,
		`{"maxCycles":1e3}`,
		`{"maxCycles":9223372036854775808}`,
		`{"maxCycles":-9223372036854775809}`,
		`{"maxCycles":01}`,
		`{"maxCycles":+1}`,
		`{"maxCycles":"1"}`,
		`{"config":{"width":-1}}`,
		`{"config":{"pes":1.5}}`,
		`{"localMem":[[1,2],[3,]]}`,
		`{"localMem":[1]}`,
		`{"scalarMem":[1 2]}`,
		`{"trace":1}`,
		`{"resumable":tru}`,
		`{"x":[1,2}`,
		`{"x":"\q"}`,
		`{"x":01}`,
		deep,
		`[]`,
		`"asm"`,
	} {
		v := new(client.SessionRequest)
		if wire.Decode([]byte(in), v) {
			t.Errorf("accepted non-canonical %q", in)
		}
		for _, nv := range hotTypes {
			differ(t, []byte(in), nv)
		}
	}
	// Snapshots that are not canonical base64.
	for _, in := range []string{
		`{"envelope":{"snapshot":"A\u0041=="}}`,
		"{\"envelope\":{\"snapshot\":\"AA\n==\"}}",
		`{"envelope":{"snapshot":"AA="}}`,
		`{"envelope":{"snapshot":"!!!!"}}`,
		`{"envelope":{"snapshot":[1,2]}}`,
	} {
		if wire.Decode([]byte(in), new(client.ResumeRequest)) {
			t.Errorf("accepted non-canonical %q", in)
		}
		differ(t, []byte(in), func() any { return new(client.ResumeRequest) })
	}
}

// TestDecodeTargets covers what Decode does with its target itself.
func TestDecodeTargets(t *testing.T) {
	var rr client.RunRequest
	if wire.Decode([]byte(`{}`), rr) || wire.Decode([]byte(`{}`), (*client.RunRequest)(nil)) || wire.Decode([]byte(`{}`), nil) {
		t.Error("accepted a target that is not a non-nil pointer")
	}
	// v is zeroed first, as a fresh target would be.
	rr = client.RunRequest{Asm: "old", LocalMem: [][]int64{{1}}}
	if !wire.Decode([]byte(`{"ascl":"x"}`), &rr) || !reflect.DeepEqual(rr, client.RunRequest{ASCL: "x"}) {
		t.Errorf("decoded into a used target: %+v", rr)
	}
	rr = client.RunRequest{Asm: "old"}
	if wire.Decode([]byte(`{"ascl":1}`), &rr) || !reflect.DeepEqual(rr, client.RunRequest{}) {
		t.Errorf("declined without zeroing: %+v", rr)
	}
	// Types whose decoding encoding/json hands elsewhere, or resolves by
	// rules Decode does not reproduce, always decline.
	type inner struct{ A int }
	for _, v := range []any{
		new(struct{ X any }),
		new(struct{ X json.RawMessage }),
		new(struct{ X [2]int }),
		new(struct{ X map[int]int }),
		new(struct {
			A int `json:"a,string"`
		}),
		new(struct{ *inner }),
		new(struct {
			inner
			A int
		}),
	} {
		if wire.Decode([]byte(`{}`), v) {
			t.Errorf("%T: accepted an unsupported target", v)
		}
	}
	// Promotion and renaming match encoding/json.
	type outer struct {
		inner
		B    string `json:"b"`
		C    int    `json:"-"`
		d    int
		List []inner `json:"list"`
	}
	in := []byte(`{"A":1,"b":"x","C":3,"d":4,"list":[{"A":2},{}]}`)
	var w, j outer
	if !wire.Decode(in, &w) {
		t.Fatal("declined a promoted field")
	}
	if err := json.Unmarshal(in, &j); err != nil || !reflect.DeepEqual(w, j) {
		t.Errorf("wire %+v, json %+v (%v)", w, j, err)
	}
}

// TestRowsShareOneArray checks that an image's rows are carved from one
// allocation, each capped at its own length so an append cannot spill
// into the next row.
func TestRowsShareOneArray(t *testing.T) {
	var v client.RunRequest
	if !wire.Decode([]byte(`{"localMem":[[1,2],[3],[],[4,5,6]]}`), &v) {
		t.Fatal("declined")
	}
	base := unsafe.SliceData(v.LocalMem[0])
	offset := 0
	for i, r := range v.LocalMem {
		if cap(r) != len(r) {
			t.Errorf("row %d: cap %d, len %d", i, cap(r), len(r))
		}
		if len(r) > 0 && unsafe.SliceData(r) != (*int64)(unsafe.Add(unsafe.Pointer(base), 8*offset)) {
			t.Errorf("row %d does not follow row %d in one backing array", i, i-1)
		}
		offset += len(r)
	}
}

// FuzzWireDecode holds Decode to encoding/json on every hot type: an
// input is either accepted by both with deeply equal values, or declined
// by Decode with the target left zero.
func FuzzWireDecode(f *testing.F) {
	for _, data := range canonical(f) {
		f.Add(data)
	}
	for _, s := range []string{
		`{"localMem":[[],null,[1,null,-2]]}`,
		`{"ASM":"x","asm":"y"}`,
		`{"x":[[[[[[[[[[1]]]]]]]]]]}`,
		`{"envelope":{"snapshot":"AA==","stats":{"idleByCause":{"a":1,"a":2}}}}`,
		`{"asm":"\u00e9\ud83d\ude00"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, nv := range hotTypes {
			differ(t, data, nv)
		}
	})
}

// BenchmarkWireDecode is the wire decoding layer row: encoding/json's
// streaming decoder (the server's former path) against Decode, in ns per
// body byte and allocations, on three bodies: a wide-session 1024-PE
// session with 8-word rows, the resume body of a 1024-PE envelope, and a
// 32-job batch at 16 PEs.
func BenchmarkWireDecode(b *testing.B) {
	bodies := []struct {
		name string
		data []byte
		newV func() any
	}{
		{"session-1024x8", marshal(b, sessionRequest(1024)), func() any { return new(client.SessionRequest) }},
		{"resume-1024", marshal(b, client.ResumeRequest{Envelope: envelope(b, 1024)}), func() any { return new(client.ResumeRequest) }},
		{"batch-32x16", marshal(b, batchRequest(32, 16)), func() any { return new(client.BatchRequest) }},
	}
	for _, body := range bodies {
		for _, dec := range []struct {
			name   string
			decode func([]byte, any) bool
		}{
			{"json", func(data []byte, v any) bool {
				return json.NewDecoder(bytes.NewReader(data)).Decode(v) == nil
			}},
			{"wire", wire.Decode},
		} {
			b.Run(fmt.Sprintf("%s/%s", body.name, dec.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body.data)))
				for i := 0; i < b.N; i++ {
					if !dec.decode(body.data, body.newV()) {
						b.Fatal("declined")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(body.data)), "ns/byte")
			})
		}
	}
}
