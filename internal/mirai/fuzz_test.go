package mirai

import "testing"

// FuzzParseAttackCommand feeds hostile lines to the command parser a
// bot runs on every C&C line: it must never panic, and any command it
// accepts must parse back to itself from its canonical encoding.
func FuzzParseAttackCommand(f *testing.F) {
	for _, line := range []string{
		"udpplain 10.3.0.2 80 100\n",
		"syn 2001:db8::9 443 30",
		"ack fe80::1%eth0 0 1\r\n",
		"udpplain 10.0.0.1 99999 10",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		cmd, err := ParseAttackCommand(line)
		if err != nil {
			return
		}
		again, err := ParseAttackCommand(cmd.Encode())
		if err != nil {
			t.Fatalf("accepted %q as %+v, but its encoding %q fails: %v", line, cmd, cmd.Encode(), err)
		}
		if again != cmd {
			t.Fatalf("accepted %q as %+v, which encodes as %q and parses as %+v", line, cmd, cmd.Encode(), again)
		}
	})
}
