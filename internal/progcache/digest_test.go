package progcache_test

import (
	"reflect"
	"testing"

	"repro/client"
	"repro/internal/progcache"
)

// TestRequestDigestCoversMachineConfig: two requests that differ in any
// single client.MachineConfig field get different program digests. The
// gateway routes and ascd groups batches on the digest alone, so a field
// the digest missed would merge jobs for different machines. A field
// added to MachineConfig without a variant here fails the test.
func TestRequestDigestCoversMachineConfig(t *testing.T) {
	base := client.MachineConfig{PEs: 16, Threads: 4, Width: 32, LocalMemWords: 64, Arity: 4}
	variants := map[string]any{
		"PEs":           32,
		"Threads":       8,
		"Width":         uint(16),
		"LocalMemWords": 128,
		"Arity":         2,
		"SeqMul":        true,
		"FixedPriority": true,
		"SMT":           true,
	}
	const asm = "halt"
	want := progcache.RequestDigest("", asm, base.ASC())
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		v, ok := variants[name]
		if !ok {
			t.Errorf("MachineConfig.%s has no variant in this test", name)
			continue
		}
		cfg := base
		reflect.ValueOf(&cfg).Elem().Field(i).Set(reflect.ValueOf(v))
		if got := progcache.RequestDigest("", asm, cfg.ASC()); got == want {
			t.Errorf("MachineConfig.%s = %v does not change the digest", name, v)
		}
	}
	if len(variants) != typ.NumField() {
		t.Errorf("%d variants for %d MachineConfig fields", len(variants), typ.NumField())
	}
}
