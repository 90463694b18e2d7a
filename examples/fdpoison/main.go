// fdpoison demonstrates the paper's §2 footnote live: with a GNU-malloc-style
// allocator that keeps metadata IN the heap, a single use-after-free write is
// enough to poison a free list and make malloc() return a live object's
// address — no spraying required. MineSweeper on the same allocator keeps
// the freed chunk out of the free lists while the dangling pointer exists,
// killing the primitive.
//
// Run with:
//
//	go run ./examples/fdpoison
package main

import (
	"fmt"
	"log"

	"minesweeper/internal/core"
	"minesweeper/internal/dlmalloc"
	"minesweeper/internal/mem"
	"minesweeper/internal/sim"
)

func main() {
	fmt.Println("=== dlmalloc (in-band metadata, unprotected) ===")
	attack(false)
	fmt.Println()
	fmt.Println("=== dlmalloc + MineSweeper ===")
	attack(true)
}

func attack(protected bool) {
	space := mem.NewAddressSpace()
	sub := dlmalloc.New(space)
	var heap interface {
		Shutdown()
	}
	var prog *sim.Program
	var err error
	if protected {
		cfg := core.DefaultConfig()
		cfg.Mode = core.Synchronous
		cfg.BufferCap = 1
		h, cerr := core.NewWithSubstrate(space, cfg, sub)
		if cerr != nil {
			log.Fatal(cerr)
		}
		heap = h
		prog, err = sim.NewProgram(space, h, nil)
	} else {
		heap = sub
		prog, err = sim.NewProgram(space, sub, nil)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer heap.Shutdown()
	th, err := prog.NewThread(1)
	if err != nil {
		log.Fatal(err)
	}
	defer th.Close()

	// A live "credentials" object the attacker wants to overwrite.
	victim, _ := th.Malloc(64)
	_ = th.Store(victim, 0x5AFE) // victim->privilege = SAFE
	fmt.Printf("victim object at %#x holds %#x\n", victim, 0x5AFE)

	// The bug: a chunk is freed while a dangling pointer remains.
	chunk, _ := th.Malloc(64)
	_ = th.Store(prog.GlobalSlot(0), chunk)
	_ = th.Free(chunk)

	// The exploit: one dangling WRITE, placing the victim's address where
	// the allocator keeps its free-list fd pointer.
	_ = th.Store(chunk, victim)
	fmt.Printf("attacker wrote victim's address into freed chunk %#x\n", chunk)

	// Two allocations later, who owns the victim's memory?
	m1, _ := th.Malloc(64)
	m2, _ := th.Malloc(64)
	fmt.Printf("next mallocs returned %#x and %#x\n", m1, m2)
	if m2 == victim || m1 == victim {
		_ = th.Store(victim, 0x600D) // attacker writes through "their" chunk
	}
	v, _ := th.Load(victim)
	if v != 0x5AFE {
		fmt.Printf("EXPLOITED: malloc handed out the live victim; it now holds %#x\n", v)
	} else {
		fmt.Printf("safe: victim untouched (%#x); the chunk never reached a free list\n", v)
	}
}
