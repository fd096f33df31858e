package main

import (
	"fmt"
	"strings"
)

// The serve-vhdl corpus: synchronous RTL that lints clean. Each design is a
// testbench with a clock process and K instances of three library entities
// (a binary counter, a scrambler LFSR that advances STEPS bits per clock
// and a Gray-code counter) in varied widths, plus a monitor process that
// reads every instance output. Each instance keeps its state in process
// variables and registers its output every DIV clocks, so a session's trace
// stays small next to the interpreter work behind it: govhdld keeps every
// finished session, and the heap grows with the trace it holds. Designs
// differ in K, widths, STEPS, DIV, entity mix and horizon, all drawn from
// the seed.

const corpusLibrary = `library ieee;
use ieee.std_logic_1164.all;

entity bcount is
  generic (W : integer := 8; DIV : integer := 8);
  port (clk : in std_logic;
        q   : out std_logic_vector(W-1 downto 0));
end entity;

architecture rtl of bcount is
begin
  step : process (clk)
    variable r : std_logic_vector(W-1 downto 0) := (others => '0');
    variable n : integer := 0;
  begin
    if rising_edge(clk) then
      r := r + 1;
      n := n + 1;
      if n = DIV then
        n := 0;
        q <= r;
      end if;
    end if;
  end process;
end architecture;

entity lfsr is
  generic (W : integer := 8; STEPS : integer := 8; DIV : integer := 8);
  port (clk : in std_logic;
        q   : out std_logic_vector(W-1 downto 0));
end entity;

architecture rtl of lfsr is
begin
  step : process (clk)
    variable r  : std_logic_vector(W-1 downto 0) := (others => '0');
    variable fb : std_logic;
    variable n  : integer := 0;
  begin
    if rising_edge(clk) then
      for s in 1 to STEPS loop
        fb := not (r(W-1) xor r(W-2));
        r := r(W-2 downto 0) & fb;
      end loop;
      n := n + 1;
      if n = DIV then
        n := 0;
        q <= r;
      end if;
    end if;
  end process;
end architecture;

entity gray is
  generic (W : integer := 8; DIV : integer := 8);
  port (clk : in std_logic;
        q   : out std_logic_vector(W-1 downto 0));
end entity;

architecture rtl of gray is
begin
  step : process (clk)
    variable b : std_logic_vector(W-1 downto 0) := (others => '0');
    variable g : std_logic_vector(W-1 downto 0) := (others => '0');
    variable n : integer := 0;
  begin
    if rising_edge(clk) then
      b := b + 1;
      g(W-1) := b(W-1);
      for i in W-2 downto 0 loop
        g(i) := b(i+1) xor b(i);
      end loop;
      n := n + 1;
      if n = DIV then
        n := 0;
        q <= g;
      end if;
    end if;
  end process;
end architecture;
`

// design is one corpus entry, as a client submits it.
type design struct {
	key    string // unique per distinct design
	top    string
	source string
	until  string // pvsim time spelling, e.g. "800ns"
}

// rng is xorshift64, so the corpus depends only on the seed.
type rng uint64

func newRNG(seed int64, stream uint64) *rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9)
	if r == 0 {
		r = 1
	}
	for i := 0; i < 4; i++ {
		r.next()
	}
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// intn returns a value in [lo, hi].
func (r *rng) intn(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

// sizeClasses is the number of design sizes. Sizes cycle through the submit
// sequence, so every run serves the same mix of sizes whatever its seed;
// the seed draws everything else (widths, STEPS, DIV, instance order). A
// run's throughput then does not depend on which seed it was given.
const sizeClasses = 6

// genDesign draws one design of size class c: 3+c instances, half of them
// LFSRs, over a horizon that does not grow with the instance count. name
// tags it, so every call with a different name is a distinct design and a
// distinct cache key.
func genDesign(r *rng, name string, c int) design {
	k := 3 + c
	cycles := 80 + 20*((5*c)%sizeClasses)
	kinds := make([]int, k) // 0 bcount, 1 gray, 2 and 3 lfsr
	for i := range kinds {
		kinds[i] = i % 4
	}
	for i := len(kinds) - 1; i > 0; i-- {
		j := r.intn(0, i)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- perfbench corpus design %s\n", name)
	b.WriteString(corpusLibrary)
	b.WriteString("\nentity tb is end entity;\n\narchitecture sim of tb is\n")
	b.WriteString("  signal clk : std_logic := '0';\n")
	widths := make([]int, k)
	for i := range widths {
		widths[i] = r.intn(8, 16)
		fmt.Fprintf(&b, "  signal q%d : std_logic_vector(%d downto 0);\n", i, widths[i]-1)
	}
	b.WriteString("begin\n  clkgen : process\n  begin\n    wait for 5 ns;\n    clk <= not clk;\n  end process;\n\n")
	for i, w := range widths {
		div := 4 << r.intn(0, 2)
		switch kinds[i] {
		case 0:
			fmt.Fprintf(&b, "  u%d : entity work.bcount generic map (W => %d, DIV => %d)", i, w, div)
		case 1:
			fmt.Fprintf(&b, "  u%d : entity work.gray generic map (W => %d, DIV => %d)", i, w, div)
		default:
			fmt.Fprintf(&b, "  u%d : entity work.lfsr generic map (W => %d, STEPS => %d, DIV => %d)", i, w, r.intn(200, 280), div)
		}
		fmt.Fprintf(&b, " port map (clk => clk, q => q%d);\n", i)
	}
	b.WriteString("\n  mon : process (")
	for i := range widths {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "q%d", i)
	}
	b.WriteString(")\n    variable n : integer := 0;\n  begin\n    n := n + 1;\n  end process;\nend architecture;\n")
	return design{key: name, top: "tb", source: b.String(), until: fmt.Sprintf("%dns", 10*cycles)}
}

// corpus is the seeded submit sequence of one serve-vhdl run. Set-up
// submits each shared design once to fill the design cache. In the measured
// loop every even submit repeats a shared design (a cache hit) and every
// odd one is a new design (a miss), so half the submits hit.
type corpus struct {
	seed   int64
	shared []design
}

// sharedDesigns is two designs of every size class.
const sharedDesigns = 2 * sizeClasses

func newCorpus(seed int64) *corpus {
	c := &corpus{seed: seed}
	r := newRNG(seed, 0)
	for i := 0; i < sharedDesigns; i++ {
		c.shared = append(c.shared, genDesign(r, fmt.Sprintf("s%d-shared%d", seed, i), i%sizeClasses))
	}
	return c
}

// submit returns the design of the i-th submit of the measured loop and
// whether it repeats a shared design.
func (c *corpus) submit(i int) (design, bool) {
	if i%2 == 0 {
		return c.shared[(i/2)%len(c.shared)], true
	}
	r := newRNG(c.seed, uint64(i)+1)
	return genDesign(r, fmt.Sprintf("s%d-miss%d", c.seed, i), (i/2)%sizeClasses), false
}
