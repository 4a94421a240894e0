package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// harnessIterations is internal/harness's outer-loop sizing for a kernel
// and a budget of application instructions per run.
func harnessIterations(spec Spec, budget uint64) int {
	return max(20, int(float64(budget)/(float64(spec.Groups*(2+spec.Fill))+40)))
}

// imageDigests pins every kernel's Text and Data (SHA-256, hex) at the
// harness's 30K and 300K sizing. A changed permutation, layout or code
// sequence fails here directly, not only through the cycle goldens. Data
// does not depend on the iteration count, so both sizings share it.
var imageDigests = []struct {
	kernel            string
	text30K, text300K string
	data              string
}{
	{"bzip2",
		"5e5952bfb82ad5bee506622069116efc552303780b3b420d86c0740af8672fb6",
		"05617146ac291403d167d05d78294af87e8562c716306d0d37255fc6de3690f7",
		"54405c4fdd65cd0a7b26d7b270978fc4a9686da135c7b3eb6e273d03e6273620"},
	{"crafty",
		"f8749a9983c84d467a7633eaa223febf5c1b3f0ef666d6144e2116f5c033a291",
		"fb48f64c631b8b3abf910271dd5c07f88f16d05d63cf12cce2edeeb40b269147",
		"290160f6ac2a466b4e84ca8e7682173b178e142061efd154cabb94077b68873d"},
	{"gcc",
		"a7a33ccd6d19781cd5ff6525b4c085b02443ab4b6ad205765a365973d0e1a7bb",
		"8ee101d1ef767e6d006ca594dbca5ba9292cc3898fca857acb5640bf65da2d6f",
		"54405c4fdd65cd0a7b26d7b270978fc4a9686da135c7b3eb6e273d03e6273620"},
	{"mcf",
		"7aec3cd41d8f035ed3922f08e13004295c7177456fdbbc09e57c0cf53fb252af",
		"7c131cb984287f774d3ac4dcb1d0db9c8e467e65b02ad40999112647740085c6",
		"620a0638a91f522151926dda681d5ceab0fb107ebab23e3c85cbc2002838334b"},
	{"twolf",
		"85dee1f09d1afc37b5c0b9d4cea3c8c4c4edbc974d2016bc341351db5b75164f",
		"3f9a2272fc4872a932eed201bffdf286dde852089cb70dec8821e56fe0d5ed9c",
		"290160f6ac2a466b4e84ca8e7682173b178e142061efd154cabb94077b68873d"},
	{"vortex",
		"fd5f45ebfc7ecb9baf6a9c5a3ce15b9dc556aab951abb2aac730a2e84df5ecf7",
		"666bf28833058c58170a4f9eed9ba9a26f4d6769982f2843f89a8ad556ad3f34",
		"290160f6ac2a466b4e84ca8e7682173b178e142061efd154cabb94077b68873d"},
}

func TestKernelImageDigests(t *testing.T) {
	for _, want := range imageDigests {
		spec, ok := ByName(want.kernel)
		if !ok {
			t.Fatalf("no kernel %q", want.kernel)
		}
		for _, sz := range []struct {
			budget uint64
			text   string
		}{{30_000, want.text30K}, {300_000, want.text300K}} {
			w := MustBuild(spec, harnessIterations(spec, sz.budget))
			text := make([]byte, 0, 4*len(w.Program.Text))
			for _, word := range w.Program.Text {
				text = binary.LittleEndian.AppendUint32(text, word)
			}
			if got := digest(text); got != sz.text {
				t.Errorf("%s at %d: Text sha256 %s, want %s", spec.Name, sz.budget, got, sz.text)
			}
			if got := digest(w.Program.Data); got != want.data {
				t.Errorf("%s at %d: Data sha256 %s, want %s", spec.Name, sz.budget, got, want.data)
			}
			// Machines map Data for as long as they live: it must not
			// hold on to spare capacity.
			if c, n := cap(w.Program.Data), len(w.Program.Data); c != n {
				t.Errorf("%s: Data has capacity %d for %d bytes", spec.Name, c, n)
			}
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// BenchmarkWorkloadBuild builds each kernel at the harness's 300K sizing:
// the set-up every harness call and bench run pays per kernel
// (informational in scripts/bench_smoke.sh, with -benchmem).
func BenchmarkWorkloadBuild(b *testing.B) {
	for _, spec := range Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				MustBuild(spec, harnessIterations(spec, 300_000))
			}
		})
	}
}
