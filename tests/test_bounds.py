import pytest

from fpgeom.bounds import THEOREM_IDS, BoundReport, parameters, quantities, rhs


class TestFormulas:
    def test_t1_arithmetic(self):
        res = rhs("T1", 101, q=100, pi=200, k=5)
        assert res.value == pytest.approx(200 * (10 + 5))

    def test_t1_flags(self):
        res = rhs("T1", 7, q=100, pi=50, k=2)
        assert res.flags == {"points_le_planes": False, "points_lt_p2": False}

    def test_t1b_main_term(self):
        res = rhs("T1B", 10007, q=100, pi=200, k=1)
        assert res.value == pytest.approx(100 * 200 / 10007 + 200 * 11)

    def test_t1c(self):
        res = rhs("T1C", 11, W=100, w0=4, k=2)
        assert res.value == pytest.approx(100 * ((400) ** 0.5 + 8))
        assert res.flags["weight_ratio_lt_p2"] == (25 < 121)

    def test_t2(self):
        res = rhs("T2", 101, a=4, b=16, l=8)
        expected = 4**0.75 * 16**0.5 * 8**0.75 + 64 + 8
        assert res.value == pytest.approx(expected)
        assert res.flags["al_lt_p2"] and res.flags["a_le_b"]

    def test_t3_constraint_example(self):
        p = 31
        res = rhs("T3", p, q=p, l=p)
        assert res.flags["q13_lt_l2_p15"]  # p^13 < p^17

    def test_vinh(self):
        res = rhs("VINH", 5, q=10, l=10)
        assert res.value == pytest.approx(100 / 5 + (500) ** 0.5)

    def test_cor21(self):
        res = rhs("COR21", 7, q=16, l=16, k=4)
        assert res.value == pytest.approx(4 * 4 * (2 + 2) + 16)

    def test_krich(self):
        res = rhs("KRICH", 101, n=16, k=4)
        assert res.value == pytest.approx(16**2.75 / 4**3.75 + 16**1.25 / 4)

    def test_t41_min(self):
        assert rhs("T41", 5, s=1000).value == 5
        assert rhs("T41", 101, s=8).value == pytest.approx(4)

    def test_t42(self):
        assert rhs("T42", 101, s=49).value == 7

    def test_t43_family(self):
        assert rhs("T43", 101, s=32768).value == pytest.approx(32768 ** (8 / 15))
        large = rhs("T43LARGE", 11, s=1000)
        assert large.value == pytest.approx(11 / (1 + 121 * 1000**-1.5))
        pinned = rhs("T43PINNED", 11, s=1000)
        assert pinned.value == pytest.approx(11 / (1 + 11**1.5 / 1000))

    def test_t53_dominant_terms(self):
        p = 11
        res = rhs("T53", p, a=p * p, k0=2)
        assert res.value == pytest.approx(p**5 + p**5 + 4 * p * p)

    def test_t54_branches(self):
        small = rhs("T54", 1009, a=10, k0=2)
        assert small.branch == "small"
        assert small.value == pytest.approx(10 * 4 + 10 ** (17 / 7))
        large = rhs("T54", 5, a=10**4, k0=2)
        assert large.branch == "large"
        assert large.value == pytest.approx(
            10**4 * 4 + 10**12 / 5 + 10**8 * 5**0.5
        )

    def test_t55_branches(self):
        small = rhs("T55", 1009, a=10, k0=1)
        assert small.branch == "small"
        assert small.value == pytest.approx(10 + 10 ** (37 / 15))

    def test_t56(self):
        p = 7
        res = rhs("T56", p, a=20, k0=3)
        assert res.value == pytest.approx(20**3 / 7 + 20**2.5 + 20 * 9 + 400 * 3)


class TestValidation:
    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown bound id"):
            rhs("T99", 7, s=1)

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing"):
            rhs("T1", 7, q=10, pi=10)

    def test_extra_parameter(self):
        with pytest.raises(ValueError, match="extra"):
            rhs("T41", 7, s=10, q=3)

    @pytest.mark.parametrize("p", [0, -7])
    def test_nonpositive_modulus(self, p):
        with pytest.raises(ValueError, match="^p must be positive$"):
            rhs("T41", p, s=4)

    def test_case_insensitive_id(self):
        assert rhs("t1", 7, q=4, pi=8, k=1).theorem == "T1"


class TestMonotonicity:
    SIZE_PARAMS = {
        "T1": ("q", "pi"),
        "T1B": ("q", "pi"),
        "T1C": ("W",),
        "T2": ("a", "b", "l"),
        "T3": ("q", "l"),
        "VINH": ("q", "l"),
        "COR21": ("q", "l"),
        "KRICH": ("n",),
        "T41": ("s",),
        "T42": ("s",),
        "T43": ("s",),
        "T43LARGE": ("s",),
        "T43PINNED": ("s",),
        "T53": ("a",),
        "T54": ("a",),
        "T55": ("a",),
        "T56": ("a",),
    }
    BASE = {"q": 40, "pi": 60, "k": 3, "W": 50, "w0": 4, "a": 30, "b": 40,
            "l": 30, "n": 30, "s": 30, "k0": 2}

    @pytest.mark.parametrize("tid", sorted(SIZE_PARAMS))
    def test_nondecreasing_in_each_size(self, tid):
        base = {n: self.BASE[n] for n in parameters(tid)}
        p = 13
        for grow in self.SIZE_PARAMS[tid]:
            prev = None
            for scale in (1, 2, 4, 8):
                params = dict(base)
                params[grow] = self.BASE[grow] * scale
                value = rhs(tid, p, **params).value
                if prev is not None:
                    assert value >= prev - 1e-9, (tid, grow, scale)
                prev = value


class TestBoundReport:
    def test_ratio_recomputes(self):
        res = rhs("T1", 11, q=25, pi=50, k=2)
        rep = BoundReport.build(res, 11, {"q": 25, "pi": 50, "k": 2}, count=140)
        assert rep.ratio == pytest.approx(rep.count / rep.rhs)

    def test_registry_lists_all(self):
        assert "T1" in THEOREM_IDS and "T56" in THEOREM_IDS
        assert len(THEOREM_IDS) == 17

    def test_each_bound_names_the_reports_it_bounds(self):
        # the subcommands' own theorem column values; COR21 and KRICH have
        # no measurement yet
        plane = ("point_plane", "point_plane_restricted")
        energy = ("energy_paraboloid", "energy_sphere")
        expected = {"T1": plane, "T1B": plane, "T1C": plane, "T2": ("point_line",),
                    "T3": ("point_line",), "VINH": ("point_line",), "COR21": (), "KRICH": (),
                    "T41": ("form_values",), "T53": energy, "T54": energy, "T55": energy,
                    "T56": energy}
        expected.update(dict.fromkeys(("T42", "T43", "T43LARGE", "T43PINNED"),
                                      ("pinned_distances",)))
        assert {tid: quantities(tid.lower()) for tid in THEOREM_IDS} == expected
        with pytest.raises(ValueError, match="unknown bound id"):
            quantities("T99")
