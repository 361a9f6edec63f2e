package main

import (
	"reflect"
	"testing"

	"repro/internal/server"
)

// TestFlagDefaultsAreConfigDefaults pins the one home of ascd's defaults:
// a command line with no flags yields exactly server.DefaultConfig, apart
// from the two settings the server derives from the host (-workers and
// -pool-idle stay 0) and the logger main builds from -log-level.
func TestFlagDefaultsAreConfigDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := server.DefaultConfig()
	want.Workers, want.PoolIdle = 0, 0
	got := o.cfg
	got.Logger, want.Logger = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag defaults\n%+v\nwant the filled default\n%+v", got, want)
	}
}
