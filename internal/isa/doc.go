package isa

import (
	"fmt"
	"strings"
)

// Reference renders the complete instruction-set reference as a Markdown
// document (printed by `ascasm -isadoc` and committed as docs/ISA.md).
func Reference() string {
	var b strings.Builder
	b.WriteString(`# MTASC Instruction Set Reference

32-bit fixed-width instructions, 8-bit opcode. Register spaces per hardware
thread: 16 scalar registers (s0 reads as zero), 16 parallel registers per PE
(p0 reads as zero), 8 one-bit flag registers per PE (f0 reads as one).
Parallel, flag, and reduction instructions carry a 3-bit mask field naming
the flag register that gates execution ("?fN" in assembly, default f0 = all
PEs). Where operand B is a parallel register ("pB|sB" in the Syntax
column), the SB bit selects a scalar register in its place, broadcast to
the PE array; every other instruction leaves SB clear.

## Encodings

| Format | Layout (bit 31 .. 0) |
|---|---|
| N  | op[31:24] |
| R  | op[31:24] rd[23:20] ra[19:16] rb[15:12] |
| PR | op[31:24] rd[23:20] ra[19:16] rb[15:12] mask[11:9] sb[8] |
| I  | op[31:24] rd[23:20] ra[19:16] imm16[15:0] |
| PI | op[31:24] rd[23:20] ra[19:16] mask[15:13] imm13[12:0] |
| J  | op[31:24] target24[23:0] |

Stores and branches have no destination; their extra source register
travels in the rd field.

## Instructions

The Syntax column is each instruction's assembly form: sD, pA, fB and so on
name the rd, ra and rb fields in the scalar, parallel or flag register file;
"imm|label" is an immediate a code label may stand for; "?fM" is the
optional mask.

| Mnemonic | Syntax | Opcode | Format | Path | Writes | Reads | Notes |
|---|---|---|---|---|---|---|---|
`)
	classNames := map[Class]string{
		ClassScalar:    "scalar",
		ClassParallel:  "parallel",
		ClassReduction: "reduction",
	}
	formatNames := map[Format]string{
		FormatN: "N", FormatR: "R", FormatPR: "PR",
		FormatI: "I", FormatPI: "PI", FormatJ: "J",
	}
	for op := Op(0); int(op) < NumOps; op++ {
		info := Lookup(op)
		writes := "—"
		if w, ok := (Inst{Op: op}).Writes(); ok {
			writes = w.Kind.String()
		}
		var reads []string
		for _, r := range (Inst{Op: op}).Reads(nil) {
			reads = append(reads, r.Kind.String())
		}
		readsStr := "—"
		if len(reads) > 0 {
			readsStr = strings.Join(reads, ", ")
		}
		var notes []string
		if info.ReadsMask {
			notes = append(notes, "masked")
		}
		if info.IsLoad {
			notes = append(notes, "load")
		}
		if info.IsStore {
			notes = append(notes, "store")
		}
		if info.IsBranch {
			notes = append(notes, "branch (resolves in EX)")
		}
		if info.IsJump {
			notes = append(notes, "jump")
		}
		if info.IsMul {
			notes = append(notes, "multiplier")
		}
		if info.IsDiv {
			notes = append(notes, "sequential divider")
		}
		if info.IsThread {
			notes = append(notes, "thread management")
		}
		if info.Blocking {
			notes = append(notes, "may block the thread")
		}
		if info.IsHalt {
			notes = append(notes, "stops the machine")
		}
		fmt.Fprintf(&b, "| `%s` | `%s` | %d | %s | %s | %s | %s | %s |\n",
			info.Name, syntaxForm(op), uint8(op), formatNames[info.Format], classNames[info.Class],
			writes, readsStr, strings.Join(notes, "; "))
	}
	b.WriteString(`
## Pseudo-instructions (assembler)

| Pseudo | Expansion |
|---|---|
| ` + "`li sX, imm`" + ` | ` + "`addi sX, s0, imm`" + ` (wide values: an ` + "`addi`/`slli`/`ori`" + ` chain of sign-safe 15-bit chunks) |
| ` + "`mov sX, sY`" + ` | ` + "`add sX, sY, s0`" + ` |
| ` + "`pmov pX, pY/sY`" + ` | ` + "`por pX, p0, {pY|sY}`" + ` |
| ` + "`beqz/bnez sX, t`" + ` | ` + "`beq/bne sX, s0, t`" + ` |
| ` + "`ble/bgt/bleu/bgtu`" + ` | operand-swapped ` + "`bge/blt/bgeu/bltu`" + ` |
| ` + "`call t`" + ` / ` + "`ret`" + ` | ` + "`jal t`" + ` / ` + "`jr s15`" + ` |
| ` + "`inc/dec sX`" + ` | ` + "`addi sX, sX, ±1`" + ` |

## Reduction timing

A reduction issued at cycle t produces its scalar result at the end of
cycle t + b + r + 1, where b = ceil(log_k p) broadcast stages and
r = ceil(log2 p) reduction stages. A dependent instruction therefore
stalls b + r cycles when issued back to back — the reduction and
broadcast-reduction hazards of the paper's Figure 2.
`)
	return b.String()
}

// syntaxForm renders op's assembly form with placeholders, e.g.
// "padd pD, pA, pB|sB ?fM" or "sw sD, imm(sA)", with each "|" escaped for
// the Markdown table.
func syntaxForm(op Op) string {
	s := listing(op, func(o Operand) string {
		reg := regName(o.Kind, 0)[:1] // "s", "p" or "f"
		switch o.Field {
		case FieldRd:
			return reg + "D"
		case FieldRa:
			return reg + "A"
		case FieldRb:
			if o.Broadcast {
				return reg + "B\\|sB"
			}
			return reg + "B"
		case FieldMem:
			return "imm(" + reg + "A)"
		}
		if o.Label {
			return "imm\\|label"
		}
		return "imm"
	})
	if Lookup(op).ReadsMask {
		s += " ?fM"
	}
	return s
}
