package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
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

// TestDecodeColdAllocation checks that images decode into allocations of
// their final size with no warm decoder to reuse (two collections empty
// the pools), so what a body costs does not depend on the pools' state.
func TestDecodeColdAllocation(t *testing.T) {
	const n = 1 << 15
	list := func(elem string) string { return strings.TrimSuffix(strings.Repeat(elem+",", n), ",") }
	body := []byte(`{"localMem":[` + list("[]") + `],"scalarMem":[` + list("0") + `]}`)
	want := uint64(n*24 + n*8) // the row headers and the scalar words
	var v client.RunRequest
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok := wire.Decode(body, &v)
	runtime.ReadMemStats(&after)
	if !ok || len(v.LocalMem) != n || len(v.ScalarMem) != n {
		t.Fatalf("declined or misread: ok=%v, %d rows, %d words", ok, len(v.LocalMem), len(v.ScalarMem))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > want+want/8 {
		t.Errorf("a cold decode allocated %d B, want about %d B", got, want)
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

// encodes are hot values of every type the wire encodes: request, batch,
// session and resume bodies, session results and statuses, the drain
// handshake, and the error body.
func encodes(tb testing.TB) []any {
	env := envelope(tb, 16)
	res := client.RunResult{
		Cycles: 1234, Instructions: 999, IPC: 0.8095623987034035, ScalarOps: 3,
		ScalarMem: []int64{-1, 0, 1 << 40}, LocalMem: [][]int64{{1, 2}, {}, nil, {-3}},
		Asm: "a <b> & \"c\"\n\t\u00f6", PoolHit: true, BlockCacheHit: true,
		Trace: &client.Trace{Diagram: "IF ID\n", Stats: "stalls: 0"},
	}
	sess := sessionRequest(16)
	sess.StateDigest = true
	return []any{
		sessionRequest(16),
		&sess,
		client.ResumeRequest{Envelope: env},
		&client.ResumeRequest{},
		batchRequest(4, 16),
		client.BatchRequest{},
		client.BatchResult{Jobs: []client.BatchJobResult{{Result: &res}, {Error: "queue full", Status: 429}}, Completed: 1, Failed: 1},
		res,
		client.SessionResult{SessionID: env.SessionID, State: "suspended", Reason: "requested", Envelope: env, Checkpoints: 2},
		&client.SessionResult{SessionID: "s", State: "completed", Result: &res, Resumed: true, StateDigest: "00ff"},
		client.SessionStatus{SessionID: "s", State: "completed", Envelope: env, Result: &client.SessionResult{Result: &res}},
		client.SessionList{Sessions: []client.SessionStatus{{SessionID: "a"}, {SessionID: "b", Error: "x"}}},
		client.SessionList{},
		client.SessionDraining{Error: "draining: session suspended", Envelope: env},
		client.RunRequest{ASCL: "parallel v = pread(0);\nwrite(0, sumval(v));", LocalMem: [][]int64{{}}, ScalarMem: []int64{}},
		map[string]string{"error": "decoding request: <bad> & \u2028"},
		map[string]string{},
		(*client.RunRequest)(nil),
		nil,
	}
}

// sameEncoding checks Append against json.Marshal on v: Append may
// decline only a value encoding/json refuses, and otherwise appends
// exactly json.Marshal's bytes after what dst held.
func sameEncoding(t *testing.T, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	prefix := []byte("prefix")
	got, ok := wire.Append(prefix, v)
	switch {
	case !ok && err == nil:
		t.Fatalf("%T: Append declined a value json.Marshal encodes as %.200q", v, want)
	case ok && err != nil:
		t.Fatalf("%T: Append encoded a value json.Marshal refuses (%v): %.200q", v, err, got)
	case !ok:
		if string(got) != "prefix" {
			t.Fatalf("%T: declined but changed dst to %.200q", v, got)
		}
	case string(got[:len(prefix)]) != "prefix" || !bytes.Equal(got[len(prefix):], want):
		t.Fatalf("%T: Append wrote\n%.300q\njson.Marshal\n%.300q", v, got, want)
	}
	sameOutput(t, v)
}

// sameOutput checks Marshal against json.Marshal and Write against
// json.Encoder on v, whether Append encodes it or not.
func sameOutput(t *testing.T, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if m, merr := wire.Marshal(v); (merr == nil) != (err == nil) || !bytes.Equal(m, want) {
		t.Fatalf("%T: Marshal returned %.200q (%v), json.Marshal %.200q (%v)", v, m, merr, want, err)
	}
	var w, enc bytes.Buffer
	werr := wire.Write(&w, v)
	eerr := json.NewEncoder(&enc).Encode(v)
	if (werr == nil) != (eerr == nil) || !bytes.Equal(w.Bytes(), enc.Bytes()) {
		t.Fatalf("%T: Write wrote %.200q (%v), json.Encoder %.200q (%v)", v, w.Bytes(), werr, enc.Bytes(), eerr)
	}
}

func TestAppendMatchesMarshal(t *testing.T) {
	for _, v := range encodes(t) {
		sameEncoding(t, v)
	}
}

// TestAppendEdges pins what encoding/json writes in a way that is easy to
// get wrong: string escapes, float formats, omitempty, nil against empty,
// and promoted fields.
func TestAppendEdges(t *testing.T) {
	strs := []string{"", "plain", "<>&", "\"\\/", "\x00\x01\b\f\n\r\t\x1f\x7f", "\u2028\u2029\u2027\u202a",
		"\xff", "a\xc3", "\xed\xa0\x80", "\u00f6\U0001f600\U0010ffff", "\ufffd", hostile}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e20, 1e21, 123456789e13, 1e-6, 9.99e-7, 1e-7,
		5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.8095623987034035, 1.0 / 3}
	for _, s := range strs {
		sameEncoding(t, s)
		sameEncoding(t, map[string]string{s: s, "error": s})
		sameEncoding(t, client.RunRequest{Asm: s, ASCL: s})
		sameEncoding(t, client.SnapshotEnvelope{SessionID: s, Snapshot: []byte(s)})
	}
	for _, f := range floats {
		sameEncoding(t, f)
		sameEncoding(t, float32(f))
		sameEncoding(t, client.RunResult{IPC: f})
	}
	for _, f := range []float32{1e-6, 9.99e-7, 1e21, 1e20, 3.4028235e38, 1.1754944e-38} {
		sameEncoding(t, f)
	}
	type inner struct {
		A int `json:"a,omitempty"`
		B string
	}
	type all struct {
		inner
		P  *int            `json:"p,omitempty"`
		S  []string        `json:"s,omitempty"`
		M  map[string]bool `json:"m,omitempty"`
		U  uint64          `json:"u,omitempty"`
		F  float32         `json:"f,omitempty"`
		T  bool            `json:"t,omitempty"`
		Q  string          `json:"q,omitempty"`
		I  inner           `json:"i,omitempty"`
		Y  []byte
		Z  [][]int64
		N  []int64
		X  int8 `json:"-"`
		D  int  `json:"-,"`
		u  int
		MS map[string][]int64
	}
	one := 1
	for _, v := range []all{
		{},
		{inner: inner{A: 1, B: "b"}, P: &one, S: []string{}, M: map[string]bool{}, U: math.MaxUint64, F: 1.5,
			T: true, Q: "q", Y: []byte{}, Z: [][]int64{}, N: []int64{}, X: 3, D: 4, u: 5, MS: map[string][]int64{}},
		{S: []string{"a", ""}, M: map[string]bool{"b": true, "a": false, "": true}, Y: []byte{0xff, 0, 1},
			Z: [][]int64{nil, {}, {math.MinInt64, math.MaxInt64}}, N: []int64{-0, 7}, MS: map[string][]int64{"z": nil, "y": {1}}},
	} {
		sameEncoding(t, v)
		sameEncoding(t, &v)
		sameEncoding(t, []all{v, {}})
	}
}

// TestAppendDeclines lists values Append leaves to encoding/json, which
// encodes some of them and refuses others.
func TestAppendDeclines(t *testing.T) {
	type node struct {
		Next *node `json:"next"`
	}
	cyclic := &node{}
	cyclic.Next = cyclic
	for _, v := range []any{
		struct{ X any }{X: 1},
		struct{ T time.Time }{},
		struct{ R json.RawMessage }{R: json.RawMessage(`{}`)},
		struct{ N json.Number }{N: "1"},
		struct {
			A int `json:"a,string"`
		}{},
		struct {
			A int `json:"a,omitzero"`
		}{},
		struct{ A [2]int }{},
		map[int]string{1: "a"},
		math.NaN(),
		client.RunResult{IPC: math.Inf(1)},
		[]float64{1, math.Inf(-1)},
		cyclic,
		make(chan int),
	} {
		if out, ok := wire.Append(nil, v); ok {
			t.Errorf("%T: Append encoded %q, want it declined", v, out)
		}
		sameOutput(t, v)
	}
}

// hostile is a string with every class of character encoding/json escapes.
const hostile = "; \"quoted\" \"snapshot\":\"\" <a>&amp; \u2028 \\ end\n\thalt\n\x00\xff"

// FuzzWireEncode holds Append to json.Marshal on every hot type: the
// fuzzed body is decoded into each (as far as encoding/json gets), and the
// fuzzed string and float are planted in string, key, byte and float
// fields. Append must decline only what encoding/json refuses, and
// otherwise write its exact bytes.
func FuzzWireEncode(f *testing.F) {
	for _, data := range canonical(f) {
		f.Add(data, "", 0.0)
	}
	for _, s := range []string{hostile, "\u2029", "\xed\xa0\x80", "<>&"} {
		f.Add([]byte(`{"asm":"halt"}`), s, 1e21)
	}
	f.Add([]byte(`{"ipc":1e-7}`), "\u00f6", 1e-7)
	f.Fuzz(func(t *testing.T, data []byte, s string, x float64) {
		for _, nv := range hotTypes {
			v := nv()
			_ = json.Unmarshal(data, v)
			sameEncoding(t, v)
		}
		res := client.RunResult{Asm: s, IPC: x, Trace: &client.Trace{Diagram: s, Stats: s}}
		sameEncoding(t, &res)
		sameEncoding(t, &client.SessionResult{SessionID: s, Result: &res, StateDigest: s})
		sameEncoding(t, map[string]string{"error": s, s: s})
		sameEncoding(t, &client.SessionDraining{Error: s, Envelope: &client.SnapshotEnvelope{
			SessionID: s, Snapshot: []byte(s), Request: client.RunRequest{Asm: s},
			Stats: client.SimStats{IdleByCause: map[string]int64{s: 1, "": 2}},
		}})
	})
}

// BenchmarkWireEncode is the wire encoding layer row: json.Marshal (the
// former path) against Marshal (Append into a reused buffer, one copy
// out), in ns per body byte and allocations, on the three bodies of
// BenchmarkWireDecode.
func BenchmarkWireEncode(b *testing.B) {
	sess, batch := sessionRequest(1024), batchRequest(32, 16)
	bodies := []struct {
		name string
		v    any
	}{
		{"session-1024x8", &sess},
		{"resume-1024", &client.ResumeRequest{Envelope: envelope(b, 1024)}},
		{"batch-32x16", &batch},
	}
	for _, body := range bodies {
		size := len(marshal(b, body.v))
		for _, enc := range []struct {
			name   string
			encode func(any) ([]byte, error)
		}{
			{"json", json.Marshal},
			{"wire", wire.Marshal},
		} {
			b.Run(fmt.Sprintf("%s/%s", body.name, enc.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					if _, err := enc.encode(body.v); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/byte")
			})
		}
	}
}

// TestReadBodyBounded: a body of exactly the limit reads whole, with or
// without a size hint; one byte more is an error, not a truncated body.
func TestReadBodyBounded(t *testing.T) {
	const want = `{"asm":"halt"}`
	for _, size := range []int64{-1, int64(len(want))} {
		b, err := wire.ReadBody(strings.NewReader(want), size, int64(len(want)))
		if err != nil || string(b.Bytes()) != want {
			t.Fatalf("size %d: read %q, %v; want %q", size, b.Bytes(), err, want)
		}
		b.Release()
	}
	if _, err := wire.ReadBody(strings.NewReader(want), -1, int64(len(want))-1); err == nil {
		t.Error("a body over the limit read without an error")
	}
}
