package main

import (
	"reflect"
	"testing"

	"repro/internal/gateway"
)

// TestFlagDefaultsAreConfigDefaults pins the one home of ascgw's
// defaults: a command line with no flags yields exactly
// gateway.DefaultConfig, apart from what main fills in itself (the
// backends from -backends, the logger from -log-level) and the proxy
// transport, a fresh client in each.
func TestFlagDefaultsAreConfigDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := gateway.DefaultConfig()
	got := o.cfg
	if got.HTTPClient == nil {
		t.Error("flag config has no proxy transport")
	}
	got.Logger, want.Logger = nil, nil
	got.HTTPClient, want.HTTPClient = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag defaults\n%+v\nwant the filled default\n%+v", got, want)
	}
}
