// Package asm assembles programs for the simulated ISA. It offers two
// layers: a programmatic Builder used by the workload generator and the
// debugger's code generator, and a text assembler (Assemble) with the same
// surface syntax for tools and examples.
package asm

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Default segment layout. Everything fits comfortably below 2^31 so a
// two-instruction ldah/lda pair can materialize any static address.
const (
	DefaultTextBase  = 0x0000_1000
	DefaultDataBase  = 0x0010_0000
	DefaultStackTop  = 0x0080_0000
	DefaultBreakBase = 0x0040_0000 // heap-ish region available to workloads
)

// Program is an assembled, loadable program image. Its Text and Data
// never change after Finish: machines that load it, and the snapshots
// taken from them, map Data read-only (mem.MapImage) instead of copying
// it, and concurrent simulations share one Program. Code that needs a
// changed image builds a new Program.
type Program struct {
	TextBase uint64
	Text     []uint32 // encoded instructions
	DataBase uint64
	Data     []byte
	Entry    uint64

	// Symbols maps label names to absolute addresses (text and data).
	Symbols map[string]uint64

	// Statements lists the PCs that begin a source-level statement, in
	// ascending order. The single-stepping debugger back end steps
	// statement-to-statement, as real debuggers do (paper §2).
	Statements []uint64
}

// Symbol returns the address of a label, or an error naming it.
func (p *Program) Symbol(name string) (uint64, error) {
	a, ok := p.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("asm: no symbol %q", name)
	}
	return a, nil
}

// MustSymbol is Symbol for tests and generated code that know the label
// exists; it panics on a missing label.
func (p *Program) MustSymbol(name string) uint64 {
	a, err := p.Symbol(name)
	if err != nil {
		panic(err)
	}
	return a
}

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint64 { return p.TextBase + uint64(len(p.Text))*4 }

// DataEnd returns the first address past the data segment.
func (p *Program) DataEnd() uint64 { return p.DataBase + uint64(len(p.Data)) }

// IsStatementStart reports whether pc begins a source-level statement.
func (p *Program) IsStatementStart(pc uint64) bool {
	i := sort.Search(len(p.Statements), func(i int) bool { return p.Statements[i] >= pc })
	return i < len(p.Statements) && p.Statements[i] == pc
}

// Disassemble renders the text segment with addresses and symbols, mostly
// for debugging and the diseasm tool.
func (p *Program) Disassemble() string {
	rev := make(map[uint64]string, len(p.Symbols))
	for name, addr := range p.Symbols {
		rev[addr] = name
	}
	out := ""
	for idx, w := range p.Text {
		pc := p.TextBase + uint64(idx)*4
		if name, ok := rev[pc]; ok {
			out += fmt.Sprintf("%s:\n", name)
		}
		out += fmt.Sprintf("  %08x: %s\n", pc, isa.Decode(w))
	}
	return out
}
