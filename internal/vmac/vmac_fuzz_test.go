package vmac

import (
	"reflect"
	"testing"

	"trafficreshape/internal/mac"
)

// The configuration messages of Figure 2 are decoded from the payload
// of a received action frame. No input may panic the decoders, and any
// message they accept must survive decode → encode → decode unchanged.

func FuzzUnmarshalRequest(f *testing.F) {
	f.Add(MarshalRequest(Request{UniAddr: testClientAddr(1), Nonce: 0xdeadbeefcafe, Count: 3}))
	f.Add(MarshalRequest(Request{}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalRequest(data)
		if err != nil {
			return
		}
		r2, err := UnmarshalRequest(MarshalRequest(r))
		if err != nil {
			t.Fatalf("re-decode of re-encoded request failed: %v", err)
		}
		if r != r2 {
			t.Fatalf("decode→encode→decode mismatch: %+v vs %+v", r, r2)
		}
	})
}

func FuzzUnmarshalResponse(f *testing.F) {
	f.Add(MarshalResponse(Response{
		UniAddr: testClientAddr(2),
		Nonce:   42,
		Virtual: []mac.Address{testClientAddr(3), testClientAddr(4), testClientAddr(5)},
	}))
	f.Add(MarshalResponse(Response{UniAddr: testClientAddr(6), Nonce: 7}))
	bad := make([]byte, 15)
	bad[14] = 3
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalResponse(data)
		if err != nil {
			return
		}
		r2, err := UnmarshalResponse(MarshalResponse(r))
		if err != nil {
			t.Fatalf("re-decode of re-encoded response failed: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("decode→encode→decode mismatch:\nfirst:  %+v\nsecond: %+v", r, r2)
		}
	})
}
