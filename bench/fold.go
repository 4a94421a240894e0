package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A CPU profile is folded into layers by the function each sample was
// executing. The rules are by function name, so they need no change
// inside the program:
//
//   - internal/pipeline splits four ways: (*predecoder).* and
//     (*Core).fetch* are the front end, (*Core).exec* (plus isa.ALU) is
//     exec, (*Core).time*, the store queue, (*booking).* and (*ring).* are
//     timing, and the rest of the package (and internal/machine) is step;
//   - internal/serve and internal/obs are serve; encoding/json, bufio, net,
//     internal/poll and syscall are wire; internal/debug, internal/rewrite
//     and the root facade are debug; internal/asm and internal/workload are
//     asm; the bench's own code, runtime/pprof and compress are bench;
//   - runtime frames are GC and allocation (runtime.gc), helpers such as
//     memmove and map access, or scheduling (runtime.sched); other
//     standard-library packages are helpers too. A helper's time goes to
//     the first caller up the stack that is not a helper.
//   - every other internal package is the layer of the same name.

// layerOf folds one sampled stack, leaf first, into a layer.
func layerOf(stack []string) string {
	sawRuntime := false
	for _, fn := range stack {
		fn = strings.TrimSuffix(fn, " (inline)")
		pkg := pkgOf(fn)
		switch {
		case fn == "runtime._GC":
			return "runtime.gc"
		case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
			sawRuntime = true
			name := strings.TrimPrefix(fn, pkg+".")
			switch {
			case hasAnyPrefix(name, gcFuncs):
				return "runtime.gc"
			case pkg != "runtime" || hasAnyPrefix(name, runtimeHelpers):
				continue
			}
			return "runtime.sched"
		}
		if l := layerOfPkg(pkg, strings.TrimPrefix(fn, pkg+".")); l != "" {
			return l
		}
	}
	if sawRuntime {
		return "runtime.sched"
	}
	return "other"
}

// gcFuncs are runtime functions (name prefixes) that collect garbage or
// allocate.
var gcFuncs = []string{
	"gc", "mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
	"rawstring", "rawbyteslice", "rawruneslice", "concatstring", "slicebytetostring",
	"stringtoslicebyte", "convT", "mark", "scan", "greyobject", "shade", "sweep",
	"bgsweep", "bgscavenge", "scavenge", "wbBuf", "bulkBarrier", "typeBitsBulkBarrier",
	"heapSetType", "findObject", "spanOf", "nextFreeFast", "deductSweepCredit",
	"(*mheap)", "(*mspan)", "(*mcache)", "(*mcentral)", "(*gcWork)", "(*gcControllerState)",
	"(*gcBits)", "(*sweepLocked)", "(*pageAlloc)", "(*scavengerState)", "(*gcCPULimiterState)",
	"(*mspanSet)", "(*spanSet)", "(*fixalloc)", "(*lfstack)", "memclrNoHeapPointersChunked",
	"(*unwinder)", "(*stkframe)", "gentraceback", "pcvalue", "funcspdelta", "getStackMap",
	"typePointers", "(*typePointers)",
}

// runtimeHelpers are runtime functions (name prefixes) doing work on
// behalf of their caller.
var runtimeHelpers = []string{
	"memmove", "memclrNoHeapPointers", "memequal", "memhash", "strhash", "aeshash",
	"nilinterhash", "interhash", "typehash", "mapaccess", "mapassign", "mapdelete", "mapiter",
	"mapclear", "(*hmap)", "typedmemmove", "typedmemclr", "typedslicecopy", "nanotime",
	"walltime", "time_now", "cmpstring", "strequal", "interequal", "nilinterequal",
	"efaceeq", "ifaceeq", "assert", "getitab", "typeAssert", "duff", "panic", "deferreturn",
	"rand", "cheaprand", "fastrand", "add", "publicationBarrier", "(*_type)", "resolveTypeOff",
	"resolveNameOff", "reflect_", "unsafe", "encoderune", "decoderune", "countrunes",
	"intstring", "memequal_varlen", "f64", "float64", "uint64div", "int64div", "morestack",
	"newstack", "copystack", "abort", "asmcgocall", "racefunc", "(*itabTableType)",
	"itab", "evacuate", "hashGrow", "growWork", "makeBucketArray", "bucket",
	"(*bmap)", "(*maptype)", "pcdatavalue", "findfunc", "funcInfo", "(*Func)", "callers",
	"fpTracebackPCs", "(*moduledata)", "sync_", "poll_", "internal_poll_", "syscall_",
	"time_", "reflectlite_", "os_", "procyield",
	"asyncPreempt", // injected into whatever function was running
}

// layerOfPkg maps a non-runtime function to its layer, or "" for a
// helper whose time belongs to its caller.
func layerOfPkg(pkg, name string) string {
	switch pkg {
	case "repro/internal/pipeline":
		switch {
		case strings.HasPrefix(name, "(*predecoder)."), strings.HasPrefix(name, "(*Core).fetch"):
			return "pipeline.frontend"
		case strings.HasPrefix(name, "(*Core).exec"):
			return "pipeline.exec"
		case strings.HasPrefix(name, "(*Core).time"), strings.HasPrefix(name, "(*Core).searchStoreQ"),
			strings.HasPrefix(name, "(*Core).pushStoreQ"), strings.HasPrefix(name, "(*booking)."),
			strings.HasPrefix(name, "(*ring)."):
			return "pipeline.timing"
		}
		return "pipeline.step"
	case "repro/internal/machine":
		return "pipeline.step"
	case "repro/internal/isa":
		if name == "ALU" || strings.HasPrefix(name, "ALU.") {
			return "pipeline.exec"
		}
		return "isa"
	case "repro/internal/cache", "repro/internal/mem", "repro/internal/bpred",
		"repro/internal/dise", "repro/internal/debug", "repro/internal/asm",
		"repro/internal/serve", "repro/internal/harness":
		return strings.TrimPrefix(pkg, "repro/internal/")
	case "repro/internal/rewrite", "repro/internal/iwatcher", "repro":
		return "debug"
	case "repro/internal/workload":
		return "asm"
	case "repro/internal/obs":
		return "serve"
	case "encoding/json", "bufio", "net", "internal/poll", "syscall":
		return "wire"
	case "main", "runtime/pprof":
		return "bench"
	}
	switch {
	case strings.HasPrefix(pkg, "net/"):
		return "wire"
	case strings.HasPrefix(pkg, "compress/"):
		return "bench"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], ".") && !strings.HasPrefix(pkg, "repro"):
		return "" // another standard-library package: a helper
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a Go symbol name.
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// fold is a profile summed by layer and by leaf function.
type fold struct {
	totalNs int64
	layerNs map[string]int64
	funcNs  map[string]int64 // leaf function -> CPU ns
	funcL   map[string]string
}

// foldProfile reads a runtime/pprof CPU profile and folds it.
func foldProfile(path string) (*fold, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if zr, err := gzip.NewReader(bytes.NewReader(raw)); err == nil {
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f := &fold{layerNs: map[string]int64{}, funcNs: map[string]int64{}, funcL: map[string]string{}}
	vi := len(p.sampleTypes) - 1 // cpu nanoseconds
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				stack = append(stack, p.strings[p.funcs[fid]])
			}
		}
		if len(stack) == 0 {
			continue
		}
		ns := s.values[vi]
		l := layerOf(stack)
		f.totalNs += ns
		f.layerNs[l] += ns
		f.funcNs[stack[0]] += ns
		f.funcL[stack[0]] = l
	}
	return f, nil
}

// frac is a layer's share of the profile's CPU time.
func (f *fold) frac(layer string) float64 {
	if f.totalNs == 0 {
		return 0
	}
	return float64(f.layerNs[layer]) / float64(f.totalNs)
}

// report renders the layer shares and each layer's leading functions.
func (f *fold) report(topPerLayer int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "layer\tshare\tcpu_s\n")
	for _, l := range cpuLayers {
		fmt.Fprintf(&b, "%s\t%.2f%%\t%.3f\n", l, 100*f.frac(l), float64(f.layerNs[l])/1e9)
	}
	fns := make([]string, 0, len(f.funcNs))
	for fn := range f.funcNs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return f.funcNs[fns[i]] > f.funcNs[fns[j]] })
	fmt.Fprintf(&b, "\nlayer\tflat%%\tfunction\n")
	for _, l := range cpuLayers {
		n := 0
		for _, fn := range fns {
			if f.funcL[fn] == l && n < topPerLayer {
				fmt.Fprintf(&b, "%s\t%.2f%%\t%s\n", l, 100*float64(f.funcNs[fn])/float64(f.totalNs), fn)
				n++
			}
		}
	}
	return b.String()
}

// profile holds the parts of a profile.proto message the fold needs.
type profile struct {
	sampleTypes []int64
	samples     []pbSample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string index
	strings     []string
}

type pbSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the fields of profile.proto (github.com/google/pprof)
// that name each sample's functions: Profile.sample_type(1), sample(2),
// location(4), function(5), string_table(6); Sample.location_id(1),
// value(2); Location.id(1), line(4); Line.function_id(1); Function.id(1),
// name(2).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := pbFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 1:
			p.sampleTypes = append(p.sampleTypes, 0)
		case 2:
			var s pbSample
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return pbVarints(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbVarints(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fids = append(fids, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcs {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
	}
	return p, nil
}

// pbFields calls fn for each field of a protobuf message: v holds a
// varint or fixed value, data a length-delimited payload.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints yields a repeated varint field, packed (data) or not (v).
func pbVarints(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
