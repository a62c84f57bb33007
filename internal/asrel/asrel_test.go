package asrel

import (
	"bytes"
	"strings"
	"testing"

	"rpslyzer/internal/ir"
)

func TestRelBasics(t *testing.T) {
	db := New()
	db.AddP2C(10, 20)
	db.AddP2P(20, 30)
	if db.Rel(10, 20) != Provider {
		t.Error("10 should be provider of 20")
	}
	if db.Rel(20, 10) != Customer {
		t.Error("20 should be customer of 10")
	}
	if db.Rel(20, 30) != Peer || db.Rel(30, 20) != Peer {
		t.Error("20 and 30 should peer")
	}
	if db.Rel(10, 30) != None {
		t.Error("10 and 30 are unrelated")
	}
}

func TestAddDuplicatesIgnored(t *testing.T) {
	db := New()
	db.AddP2C(1, 2)
	db.AddP2C(1, 2)
	db.AddP2P(1, 2) // already provider; ignored
	if len(db.Customers(1)) != 1 || len(db.Peers(1)) != 0 {
		t.Errorf("customers=%v peers=%v", db.Customers(1), db.Peers(1))
	}
}

func TestDegreeAndASes(t *testing.T) {
	db := New()
	db.AddP2C(1, 2)
	db.AddP2C(1, 3)
	db.AddP2P(1, 4)
	if db.Degree(1) != 3 {
		t.Errorf("degree = %d", db.Degree(1))
	}
	ases := db.ASes()
	if len(ases) != 4 || ases[0] != 1 || ases[3] != 4 {
		t.Errorf("ASes = %v", ases)
	}
}

func TestComputeTier1(t *testing.T) {
	db := New()
	// Clique of 1,2,3; AS4 has a provider so cannot be Tier-1 even
	// though it peers widely.
	db.AddP2P(1, 2)
	db.AddP2P(1, 3)
	db.AddP2P(2, 3)
	db.AddP2C(1, 4)
	db.AddP2P(4, 2)
	db.AddP2P(4, 3)
	// AS5 is provider-free but does not peer with the whole clique.
	db.AddP2P(5, 1)
	db.ComputeTier1()
	for _, a := range []ir.ASN{1, 2, 3} {
		if !db.IsTier1(a) {
			t.Errorf("AS%d should be Tier-1", a)
		}
	}
	if db.IsTier1(4) {
		t.Error("AS4 has a provider; not Tier-1")
	}
	if db.IsTier1(5) {
		t.Error("AS5 does not peer with the clique; not Tier-1")
	}
}

func TestCustomerCone(t *testing.T) {
	db := New()
	db.AddP2C(1, 2)
	db.AddP2C(2, 3)
	db.AddP2C(2, 4)
	db.AddP2C(5, 4) // multihomed
	cone := db.CustomerCone(1)
	for _, a := range []ir.ASN{2, 3, 4} {
		if !cone[a] {
			t.Errorf("AS%d should be in AS1's cone", a)
		}
	}
	if cone[1] || cone[5] {
		t.Errorf("cone = %v", cone)
	}
}

func TestCustomerConeDiamondVisitedOnce(t *testing.T) {
	db := New()
	db.AddP2C(1, 2)
	db.AddP2C(1, 3)
	db.AddP2C(2, 4)
	db.AddP2C(3, 4) // AS4 reachable twice
	cone := db.CustomerCone(1)
	if len(cone) != 3 {
		t.Errorf("cone = %v, want {2,3,4}", cone)
	}
}

func TestContradictoryLinksRejected(t *testing.T) {
	db := New()
	db.AddP2C(1, 2)
	db.AddP2C(2, 1) // contradicts the existing link; ignored
	if db.Rel(1, 2) != Provider {
		t.Errorf("Rel(1,2) = %v after contradictory add", db.Rel(1, 2))
	}
}

func TestCAIDARoundTrip(t *testing.T) {
	db := New()
	db.AddP2C(10, 20)
	db.AddP2C(10, 30)
	db.AddP2P(20, 30)
	db.SetTier1(10)
	var buf bytes.Buffer
	if err := db.WriteCAIDA(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCAIDA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rel(10, 20) != Provider || got.Rel(20, 30) != Peer {
		t.Error("relationships lost in round trip")
	}
	if !got.IsTier1(10) {
		t.Error("Tier-1 clique lost in round trip")
	}
}

func TestReadCAIDAErrors(t *testing.T) {
	for _, text := range []string{"banana\n", "1|2\n", "1|2|9\n", "x|2|0\n"} {
		if _, err := ReadCAIDA(strings.NewReader(text)); err == nil {
			t.Errorf("ReadCAIDA(%q) succeeded", text)
		}
	}
}

func TestReadCAIDASkipsComments(t *testing.T) {
	db, err := ReadCAIDA(strings.NewReader("# produced by test\n\n1|2|-1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Rel(1, 2) != Provider {
		t.Error("relationship not read")
	}
}
