package isa

import "testing"

// FuzzDecode feeds arbitrary words to the decoder, which sees whatever a
// client's program puts in its text. Decode and Inst.String must not
// panic, DecodeUop must agree with resolving the decoded instruction, and
// every word but the illegal-instruction trap must re-encode to one that
// decodes the same. The seed corpus holds one word per primary opcode
// group and 0xFFFFFFFF.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, w uint32) {
		in := Decode(w)
		_ = in.String()
		if got, want := DecodeUop(w), ResolveUop(in); got != want {
			t.Fatalf("DecodeUop(%#08x) = %+v, want ResolveUop(Decode) = %+v", w, got, want)
		}
		if in.Op == OpTrap && in.Imm == -1 {
			return // illegal: there is nothing to re-encode
		}
		enc, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(Decode(%#08x) = %v): %v", w, in, err)
		}
		if got := Decode(enc); got != in {
			t.Fatalf("Decode(Encode(Decode(%#08x))) = %+v (word %#08x), want %+v", w, got, enc, in)
		}
	})
}
