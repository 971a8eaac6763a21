package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/trace"
)

func TestResolveFormat(t *testing.T) {
	if _, err := resolveFormat("xml"); err == nil {
		t.Fatal("xml: want an error")
	}
	for format, ext := range map[string]string{"csv": ".csv", "binary": ".trace"} {
		enc, err := resolveFormat(format)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if enc.ext != ext {
			t.Fatalf("%s: extension %q, want %q", format, enc.ext, ext)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	enc, err := resolveFormat("binary")
	if err != nil {
		t.Fatal(err)
	}
	tr := appgen.Generate(trace.Browsing, 10*time.Second, 3)
	var buf bytes.Buffer
	if err := enc.write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("binary trace does not read back equal")
	}
}
