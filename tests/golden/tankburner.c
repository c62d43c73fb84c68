#include <math.h>

long k = 0;
int stuck = 0;
unsigned long long vis = 0, emit = 0;
int l0 = 0;
int l1 = 0;
double v_x = 20.0;
double n_x = 20.0;
double c1_x = 20.0;
double v_c = 0.0;
double n_c = 0.0;
double c1_c = 0.0;

static double snap(double x, double p, double b, int h) {
    return h || !((p <= b && b <= x) || (x <= b && b <= p)) ? x : b;
}

void react_tankburner(void) {
    v_x = n_x;
    v_c = n_c;
    int e0 = (l0 == 0 ? (vis & 3) == 0 && v_x == 20 : l0 == 2 ? (vis & 3) == 0 && v_x == 100 : (vis & 3) == 0 && v_x >= 20 && v_x <= 100), e1 = (l1 == 0 ? v_c >= 0 && v_c <= 25 : v_c >= 0 && v_c <= 15);
    if (e0 && e1) {
        k = k + 1;
        n_x = (l0 == 1 ? 150.0 + c1_x * exp(-0.00075 * k) : l0 == 3 ? c1_x * exp(-0.00075 * k) : n_x);
        n_c = c1_c + 0.01 * k;
        return;
    }
    int l0_n = l0;
    switch (l0) {
    case 0: {  /* t1 */
        double prev_x = k >= 1 ? c1_x : v_x;
        double s0_x = snap(v_x, prev_x, 20, v_x == 20);
        if ((vis & 3) == 1 && s0_x == 20) {
            v_x = s0_x;
            l0_n = 1;
        }
        else if (!e0) goto stuck;
        break;
    }
    case 1: {  /* t2 */
        double prev_x = k >= 1 ? 150.0 + c1_x * exp(-0.00075 * (k - 1)) : v_x;
        double s0_x = snap(v_x, prev_x, 100, v_x == 100);
        if (s0_x == 100) {
            v_x = s0_x;
            l0_n = 2;
        }
        else if ((vis & 3) == 2) {
            l0_n = 3;
        }
        else if (!e0) goto stuck;
        break;
    }
    case 2: {  /* t3 */
        if ((vis & 3) == 2) {
            l0_n = 3;
        }
        else if (!e0) goto stuck;
        break;
    }
    case 3: {  /* t4 */
        double prev_x = k >= 1 ? c1_x * exp(-0.00075 * (k - 1)) : v_x;
        double s0_x = snap(v_x, prev_x, 20, v_x == 20);
        if ((vis & 3) == 1) {
            l0_n = 1;
        }
        else if (s0_x == 20) {
            v_x = s0_x;
            l0_n = 0;
        }
        else if (!e0) goto stuck;
        break;
    }
    }
    c1_x = (l0_n == 1 ? v_x - 150 : v_x);
    int l1_n = l1;
    switch (l1) {
    case 0: {  /* b1 */
        double prev_c = k >= 1 ? c1_c + 0.01 * (k - 1) : v_c;
        double s0_c = snap(v_c, prev_c, 25, v_c == 25);
        if (s0_c == 25) {
            v_c = 0;
            l1_n = 1;
            emit |= 1;
        }
        else if (!e1) goto stuck;
        break;
    }
    case 1: {  /* b2 */
        double prev_c = k >= 1 ? c1_c + 0.01 * (k - 1) : v_c;
        double s0_c = snap(v_c, prev_c, 15, v_c == 15);
        if (s0_c == 15) {
            v_c = 0;
            l1_n = 0;
            emit |= 2;
        }
        else if (!e1) goto stuck;
        break;
    }
    }
    c1_c = v_c;
    n_x = v_x;
    n_c = v_c;
    k = 0;
    l0 = l0_n;
    l1 = l1_n;
    return;
stuck:
    stuck = 1;
}
