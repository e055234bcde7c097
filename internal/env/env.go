// Package env defines the CPUState layout and the simulated address-space
// map shared by every translator. Guest architectural state (registers,
// NZCV flags, float registers) lives in a memory block — the CPUState —
// whose base address is always held in the host EBP register, mirroring
// QEMU's user-mode convention. Translated code reads and writes guest
// state through EBP-relative loads and stores; those are the
// "data transfer" instructions of the paper's Table II.
package env

// Offsets within the CPUState block.
const (
	// OffR0 is the offset of guest register 0; register i lives at
	// OffR0 + 4*i for i in [0,16).
	OffR0 = 0

	// Flag words, stored as 0/1.
	OffN = 64
	OffZ = 68
	OffC = 72
	OffV = 76

	// OffF0 is the offset of float register 0 (bit patterns).
	OffF0 = 80

	// OffScratch is the base of the translator spill area.
	OffScratch = 160

	// NumScratch is the number of 4-byte spill slots.
	NumScratch = 24

	// OffBorrow is a reserved slot the translator backend uses to save a
	// register it must temporarily borrow (never used for spills).
	OffBorrow = OffScratch + 4*NumScratch

	// OffLegal0/OffLegal1 are reserved slots for the backend legalizer's
	// scratch registers. They must be distinct from OffBorrow: the
	// legalizer may rewrite an instruction that sits inside a tcg borrow
	// window, and sharing the slot would clobber the saved register.
	OffLegal0 = OffBorrow + 4
	OffLegal1 = OffBorrow + 8

	// Size is the total CPUState size in bytes.
	Size = OffLegal1 + 4
)

// OffReg returns the CPUState offset of guest register i.
func OffReg(i int) int32 { return OffR0 + 4*int32(i) }

// OffFReg returns the CPUState offset of guest float register i.
func OffFReg(i int) int32 { return OffF0 + 4*int32(i) }

// OffSpill returns the offset of spill slot i.
func OffSpill(i int) int32 { return OffScratch + 4*int32(i) }

// Simulated address-space map. The guest program, its data, its stack and
// the CPUState share one flat space (user-mode identity mapping).
const (
	// CodeBase is where guest binaries are loaded.
	CodeBase = 0x0001_0000

	// DataBase is the start of the guest static data segment.
	DataBase = 0x0100_0000

	// HeapBase is the start of the guest heap segment.
	HeapBase = 0x0200_0000

	// StackTop is the initial guest SP (stack grows down).
	StackTop = 0x0300_0000

	// StateBase is where the CPUState block lives.
	StateBase = 0x0F00_0000

	// HostStackTop is the initial host ESP.
	HostStackTop = 0x0FF0_0000
)
