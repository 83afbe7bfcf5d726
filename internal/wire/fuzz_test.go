package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal drives Go's native fuzzer over the codec: any byte string
// must either decode to a message that re-encodes decodably, or produce an
// error — never a panic, hang, or oversized allocation. Self-stabilization
// turns this from hygiene into a correctness requirement: a transient
// fault may hand the decoder literally anything.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Frames carrying a retired (reserved) type number: decode must refuse
	// them, and mutations of them explore the envelope around the type byte.
	for n := 20; n <= 27; n++ {
		f.Add(Marshal(&Message{Type: Type(n), From: 1, Epoch: 3}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil message with nil error")
		}
		// Decoded messages must round-trip through the codec.
		re := Marshal(m)
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-encode of decoded message does not decode: %v", err)
		}
		if !messagesEqual(m, m2) {
			t.Fatalf("re-encode changed the message:\n  %+v\n  %+v", m, m2)
		}
		// And must not claim to be larger than their own encoding by much
		// (Size is used for metering).
		if m.Size() != len(re) {
			t.Fatalf("Size()=%d but encoding is %d bytes", m.Size(), len(re))
		}
		_ = bytes.Equal(data, re) // encodings may legitimately differ (nil vs empty)
	})
}
